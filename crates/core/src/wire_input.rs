//! Analyze externally captured traffic.
//!
//! The simulator produces structured [`pii_crawler::SiteCrawl`]s, but a
//! real deployment has raw HTTP/1.1 messages (mitmproxy dumps, tcpflow
//! output). This module parses such messages with `pii-net::wire` and
//! wraps them into a synthetic crawl so the standard [`crate::detect`]
//! pipeline — party classification, CNAME unmasking, the four channels —
//! runs on them unchanged.

use crate::detect::{DetectionReport, LeakDetector};
use pii_browser::engine::FetchRecord;
use pii_crawler::{CrawlOutcome, SiteCrawl};
use pii_net::http::Response;
use pii_net::wire::{self, WireError};

/// One externally captured exchange: the first-party site it was observed
/// on, and the raw request bytes (response optional).
pub struct WireExchange<'a> {
    /// The site whose page initiated the request (the measurement context).
    pub site: &'a str,
    /// Raw HTTP/1.1 request message.
    pub request: &'a [u8],
    /// Raw HTTP/1.1 response message, when captured.
    pub response: Option<&'a [u8]>,
    /// URL scheme of the connection ("https" for TLS-intercepted capture).
    pub scheme: &'a str,
}

/// Build synthetic site crawls from raw exchanges, grouped by site.
pub fn crawls_from_wire(exchanges: &[WireExchange]) -> Result<Vec<SiteCrawl>, WireError> {
    let mut by_site: Vec<(String, Vec<FetchRecord>)> = Vec::new();
    for ex in exchanges {
        let request = wire::parse_request(ex.request, ex.scheme)?;
        let response = match ex.response {
            Some(raw) => wire::parse_response(raw)?,
            None => Response::ok(),
        };
        let record = FetchRecord {
            request,
            response,
            blocked: None,
            error: None,
            from_cache: None,
        };
        match by_site.iter_mut().find(|(site, _)| site == ex.site) {
            Some((_, records)) => records.push(record),
            None => by_site.push((ex.site.to_string(), vec![record])),
        }
    }
    Ok(by_site
        .into_iter()
        .map(|(domain, records)| SiteCrawl {
            domain,
            outcome: CrawlOutcome::Completed {
                email_confirmed: false,
                bot_detection_passed: false,
            },
            stored_cookies: records
                .iter()
                .flat_map(|r| {
                    r.request
                        .cookie_pairs()
                        .map(|(n, v)| pii_net::cookie::Cookie::new(n, v))
                })
                .collect(),
            records,
            resilience: None,
        })
        .collect())
}

impl LeakDetector<'_> {
    /// Detect leaks directly in raw wire exchanges.
    pub fn detect_wire(&self, exchanges: &[WireExchange]) -> Result<DetectionReport, WireError> {
        let crawls = crawls_from_wire(exchanges)?;
        let mut report = DetectionReport::default();
        for crawl in &crawls {
            self.detect_site(crawl, &mut report);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenSetBuilder;
    use pii_dns::{PublicSuffixList, ZoneStore};
    use pii_web::Persona;

    fn detector_parts() -> (TokenSetBuilder, Persona, PublicSuffixList, ZoneStore) {
        (
            TokenSetBuilder::default(),
            Persona::default_study(),
            PublicSuffixList::embedded(),
            ZoneStore::new(),
        )
    }

    #[test]
    fn detects_leak_in_raw_message() {
        let (builder, persona, psl, zones) = detector_parts();
        let tokens = builder.build(&persona);
        let detector = LeakDetector::new(&tokens, &psl, &zones);
        let sha = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Sha256, b"foo@mydom.com");
        let raw = format!(
            "GET /tr?udff%5Bem%5D={sha}&v=2.9.1 HTTP/1.1\r\n\
             Host: facebook.com\r\n\
             Referer: https://shop.example/welcome\r\n\r\n"
        );
        let report = detector
            .detect_wire(&[WireExchange {
                site: "shop.example",
                request: raw.as_bytes(),
                response: None,
                scheme: "https",
            }])
            .unwrap();
        assert_eq!(report.events.len(), 1);
        let e = &report.events[0];
        assert_eq!(e.receiver_domain, "facebook.com");
        assert_eq!(e.param, "udff[em]");
        assert_eq!(e.bucket, "sha256");
    }

    #[test]
    fn double_percent_encoded_plaintext_is_found() {
        // foo@mydom.com → foo%40mydom.com → foo%2540mydom.com on the wire.
        let (builder, persona, psl, zones) = detector_parts();
        let tokens = builder.build(&persona);
        let detector = LeakDetector::new(&tokens, &psl, &zones);
        let raw = concat!(
            "GET /c?em=foo%2540mydom.com HTTP/1.1\r\n",
            "Host: tracker.example\r\n",
            "Referer: https://shop.example/account\r\n",
            "\r\n"
        );
        let report = detector
            .detect_wire(&[WireExchange {
                site: "shop.example",
                request: raw.as_bytes(),
                response: None,
                scheme: "https",
            }])
            .unwrap();
        assert_eq!(report.events.len(), 1, "double-encoded plaintext email");
        assert_eq!(report.events[0].bucket, "plaintext");
    }

    #[test]
    fn first_party_wire_traffic_is_ignored() {
        let (builder, persona, psl, zones) = detector_parts();
        let tokens = builder.build(&persona);
        let detector = LeakDetector::new(&tokens, &psl, &zones);
        let raw = "POST /signup HTTP/1.1\r\nHost: shop.example\r\n\
                   Content-Length: 24\r\n\r\nemail=foo%40mydom.com&x=1";
        let report = detector
            .detect_wire(&[WireExchange {
                site: "shop.example",
                request: raw.as_bytes(),
                response: None,
                scheme: "https",
            }])
            .unwrap();
        assert!(
            report.events.is_empty(),
            "first-party form posts are not leaks"
        );
    }

    #[test]
    fn payload_leak_in_raw_post() {
        let (builder, persona, psl, zones) = detector_parts();
        let tokens = builder.build(&persona);
        let detector = LeakDetector::new(&tokens, &psl, &zones);
        let b64 = pii_encodings::base64::encode(b"foo@mydom.com");
        let body = format!("ev=identify&data={}", b64.replace('=', "%3D"));
        let raw = format!(
            "POST /track HTTP/1.1\r\nHost: bluecore.com\r\n\
             Content-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let report = detector
            .detect_wire(&[WireExchange {
                site: "shop.example",
                request: raw.as_bytes(),
                response: None,
                scheme: "https",
            }])
            .unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].bucket, "base64");
        assert_eq!(report.events[0].method, pii_web::site::LeakMethod::Payload);
    }

    #[test]
    fn malformed_wire_input_errors_cleanly() {
        let (builder, persona, psl, zones) = detector_parts();
        let tokens = builder.build(&persona);
        let detector = LeakDetector::new(&tokens, &psl, &zones);
        let result = detector.detect_wire(&[WireExchange {
            site: "x.example",
            request: b"NOT HTTP AT ALL",
            response: None,
            scheme: "https",
        }]);
        assert!(result.is_err());
    }

    #[test]
    fn exchanges_group_by_site() {
        let raws: Vec<String> = (0..3)
            .map(|i| format!("GET /p{i} HTTP/1.1\r\nHost: t.example\r\n\r\n"))
            .collect();
        let exchanges: Vec<WireExchange> = raws
            .iter()
            .enumerate()
            .map(|(i, raw)| WireExchange {
                site: if i < 2 { "a.example" } else { "b.example" },
                request: raw.as_bytes(),
                response: None,
                scheme: "https",
            })
            .collect();
        let crawls = crawls_from_wire(&exchanges).unwrap();
        assert_eq!(crawls.len(), 2);
        assert_eq!(crawls[0].records.len(), 2);
        assert_eq!(crawls[1].records.len(), 1);
    }
}
