//! Property-based tests over the substrate crates' core invariants.

use pii_suite::blocklist::{FilterSet, RequestInfo};
use pii_suite::encodings::EncodingKind;
use pii_suite::hashes::{digest, HashAlgorithm};
use pii_suite::net::cookie::Cookie;
use pii_suite::net::http::{Method, Request, ResourceKind};
use pii_suite::net::Url;
use proptest::prelude::*;

proptest! {
    /// Every textual codec round-trips arbitrary bytes.
    #[test]
    fn textual_encodings_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        for kind in [
            EncodingKind::Base16,
            EncodingKind::Base32,
            EncodingKind::Base32Hex,
            EncodingKind::Base58,
            EncodingKind::Base64,
            EncodingKind::Base64Url,
        ] {
            let encoded = kind.encode(&data);
            prop_assert_eq!(kind.decode(&encoded).unwrap(), data.clone(), "{}", kind.name());
        }
    }

    /// The compressors round-trip arbitrary bytes.
    #[test]
    fn compressors_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for kind in EncodingKind::COMPRESSION {
            let packed = kind.encode(&data);
            prop_assert_eq!(kind.decode(&packed).unwrap(), data.clone(), "{}", kind.name());
        }
    }

    /// Every decoder is total: arbitrary bytes, and `encode` output cut
    /// short or with bits flipped, decode to `Ok` or `Err` but never
    /// panic.
    #[test]
    fn decoders_are_total(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<u32>(),
        flips in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        for kind in EncodingKind::ALL {
            let _ = kind.decode(&garbage);
            let encoded = kind.encode(&data);
            let _ = kind.decode(&encoded[..cut as usize % (encoded.len() + 1)]);
            let bits = encoded.len() * 8;
            if bits == 0 {
                continue;
            }
            let mut damaged = encoded.clone();
            for &flip in &flips {
                let bit = flip as usize % bits;
                let mut once = encoded.clone();
                once[bit / 8] ^= 1 << (bit % 8);
                let _ = kind.decode(&once);
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = kind.decode(&damaged);
        }
    }

    /// Cookie parsing is total: `Request::cookie_pairs` and
    /// `Cookie::parse_set_cookie` return on any string, never panic.
    #[test]
    fn cookie_parsing_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        code_points in proptest::collection::vec(any::<u32>(), 0..64),
        shaped in "(( |;|; |=|==)|[a-zA-Z0-9_./-]{1,6}|(Max-Age|max-age|Path|Domain|SameSite|Secure|HttpOnly)=(-|[0-9]{0,24}|/|Lax|[.]{1,2})){0,16}",
    ) {
        let unicode: String = code_points
            .iter()
            .filter_map(|&c| char::from_u32(c % 0x11_0000))
            .collect();
        for header in [String::from_utf8_lossy(&bytes).into_owned(), unicode, shaped] {
            let _ = Cookie::parse_set_cookie(&header);
            let mut request = Request::new(
                Method::Get,
                Url::parse("https://a.com/").unwrap(),
                ResourceKind::Document,
            );
            request.headers.insert("Cookie", header);
            for (name, value) in request.cookie_pairs() {
                prop_assert!(!name.contains("; ") && !value.contains("; "));
            }
        }
    }

    /// Streaming hash state is chunking-invariant for every algorithm.
    #[test]
    fn hashing_is_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        for alg in HashAlgorithm::ALL {
            let oneshot = digest(alg, &data);
            let mut h = alg.hasher();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), oneshot, "{}", alg.name());
        }
    }

    /// Distinct short inputs never collide across the whole hash suite
    /// (cryptographic expectation, and a guard against truncation bugs).
    #[test]
    fn no_trivial_collisions(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        for alg in HashAlgorithm::CRYPTOGRAPHIC {
            prop_assert_ne!(
                digest(alg, a.as_bytes()),
                digest(alg, b.as_bytes()),
                "collision in {}", alg.name()
            );
        }
    }

    /// URL display/parse round-trips for generated well-formed URLs.
    #[test]
    fn url_roundtrip(
        host in "[a-z]{1,10}(\\.[a-z]{2,5}){1,2}",
        path in "(/[a-z0-9]{1,8}){0,3}",
        query in proptest::option::of("[a-z]{1,5}=[a-z0-9]{1,8}(&[a-z]{1,5}=[a-z0-9]{1,8}){0,2}"),
    ) {
        let mut s = format!("https://{host}{}", if path.is_empty() { "/".into() } else { path.clone() });
        if let Some(q) = &query {
            s.push('?');
            s.push_str(q);
        }
        let url = Url::parse(&s).unwrap();
        prop_assert_eq!(url.to_string(), s.clone());
        let again = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(url, again);
    }

    /// Set-Cookie serialisation round-trips.
    #[test]
    fn cookie_roundtrip(
        name in "[a-zA-Z_][a-zA-Z0-9_]{0,10}",
        value in "[a-zA-Z0-9%~-]{0,20}",
        path in "(/[a-z]{1,6}){0,2}",
        secure in any::<bool>(),
        http_only in any::<bool>(),
        max_age in proptest::option::of(1i64..1_000_000),
    ) {
        let mut c = Cookie::new(name, value);
        if !path.is_empty() {
            c.path = path;
        }
        c.secure = secure;
        c.http_only = http_only;
        c.max_age = max_age;
        let parsed = Cookie::parse_set_cookie(&c.to_set_cookie()).unwrap();
        prop_assert_eq!(parsed, c);
    }

    /// The indexed blocklist matcher agrees with the naive scan on random
    /// rule sets and requests.
    #[test]
    fn blocklist_indexed_equals_naive(
        domains in proptest::collection::vec("[a-z]{3,8}\\.(com|net|io)", 1..6),
        req_host in "[a-z]{3,8}\\.(com|net|io)",
        req_path in "(/[a-z]{1,6}){0,2}",
        third in any::<bool>(),
    ) {
        let rules: String = domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                if i % 2 == 0 {
                    format!("||{d}^\n")
                } else {
                    format!("||{d}^$third-party\n")
                }
            })
            .collect();
        let set = FilterSet::parse(&rules);
        let url = format!("https://{req_host}{}", if req_path.is_empty() { "/".into() } else { req_path.clone() });
        let info = RequestInfo {
            url: &url,
            host: &req_host,
            top_level_host: "shop.example",
            is_third_party: third,
            kind: ResourceKind::Image,
        };
        prop_assert_eq!(set.matches(&info), set.matches_naive(&info));
    }

    /// Aho–Corasick equals the naive scanner on random patterns/haystacks.
    #[test]
    fn aho_corasick_equals_naive(
        patterns in proptest::collection::vec("[ab]{1,4}", 1..8),
        haystack in "[ab]{0,64}",
    ) {
        use pii_suite::core::scan::{naive_find_all, AhoCorasick};
        // `[ab]{1,4}` patterns are never empty, so construction succeeds.
        let ac = AhoCorasick::new(&patterns).unwrap();
        let pat_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_bytes()).collect();
        let mut fast = ac.find_all(haystack.as_bytes());
        let mut slow = naive_find_all(&pat_bytes, haystack.as_bytes());
        fast.sort_by_key(|m| (m.pattern, m.start));
        slow.sort_by_key(|m| (m.pattern, m.start));
        prop_assert_eq!(fast, slow);
    }

    /// Registrable-domain extraction is idempotent and suffix-consistent.
    #[test]
    fn registrable_domain_invariants(host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,3}\\.(com|co\\.jp|org|io)") {
        let psl = pii_suite::dns::PublicSuffixList::embedded();
        if let Some(rd) = psl.registrable_domain(&host) {
            // The registrable domain is a suffix of the host…
            let dotted = format!(".{rd}");
            let is_suffix = host == rd || host.ends_with(&dotted);
            prop_assert!(is_suffix, "{} not a suffix of {}", rd, host);
            // …and is itself its own registrable domain.
            prop_assert_eq!(psl.registrable_domain(&rd), Some(rd));
        }
    }

    /// Obfuscation chains are deterministic and sensitive to the input.
    #[test]
    fn obfuscation_chain_determinism(value in "[a-z@.]{4,20}", other in "[a-z@.]{4,20}") {
        use pii_suite::web::obfuscate::Obfuscation;
        prop_assume!(value != other);
        for chain in [
            Obfuscation::plaintext(),
            Obfuscation::hash(HashAlgorithm::Sha256),
            Obfuscation::sha256_of_md5(),
            Obfuscation::encode(EncodingKind::Base64),
        ] {
            prop_assert_eq!(chain.apply(&value), chain.apply(&value));
            prop_assert_ne!(chain.apply(&value), chain.apply(&other));
        }
    }
}

proptest! {
    /// The browser's DOM parser finds every resource the site renderer
    /// emits, on arbitrary pages of arbitrary universes.
    #[test]
    fn html_render_parse_roundtrip(site_idx in 0usize..130, page_idx in 0usize..6) {
        use pii_suite::web::{html, Universe};
        use pii_suite::web::site::{LeakMethod, Site};
        use pii_suite::browser::dom;

        // Reuse one shared universe across cases (generation is expensive).
        use std::sync::OnceLock;
        static UNIVERSE: OnceLock<Universe> = OnceLock::new();
        let u = UNIVERSE.get_or_init(Universe::generate);

        let site = u.sender_sites().nth(site_idx % u.sender_sites().count()).unwrap();
        let path = Site::flow_paths()[page_idx];
        let html_text = html::render_page(site, path, Some(&u.persona));
        let base = Url::parse(&format!("https://{}{}", site.domain, path)).unwrap();
        let discovery = dom::discover(&base, &dom::parse(&html_text));

        let urls: Vec<String> = discovery.resources.iter().map(|r| r.url.to_string()).collect();
        // Every active tag's script URL is discovered…
        for edge in &site.edges {
            let active = match edge.method {
                LeakMethod::Referer => true,
                _ => Site::tag_active(edge.persistent, path),
            };
            if active {
                let expected = html::edge_script_url(edge);
                prop_assert!(urls.contains(&expected), "missing {expected} on {path}");
            }
        }
        // …and every benign resource.
        for benign in &site.benign {
            let expected = format!("https://{}{}", benign.host, benign.path);
            prop_assert!(urls.contains(&expected), "missing benign {expected}");
        }
        // Cookie-edge pages expose exactly their inline scripts.
        let cookie_edges = site
            .edges
            .iter()
            .filter(|e| e.method == LeakMethod::Cookie && Site::tag_active(e.persistent, path))
            .count();
        prop_assert_eq!(discovery.inline_scripts.len(), cookie_edges);
        // The sign-up page has the form with the configured fields.
        if path == "/signup" {
            prop_assert_eq!(discovery.forms.len(), 1);
            let form = &discovery.forms[0];
            prop_assert_eq!(form.fields.len(), site.form.fields.len());
        }
    }
}

/// The linear matcher reports the rule the indexed one reports on real
/// traffic: every distinct request of the seed-7 capture, with its own
/// kind and third-party flag, against each list. Each parse hashes the host
/// index under a fresh random state, so the lists are parsed several times:
/// a reference whose answer follows the index's iteration order disagrees
/// on some parse where one host has rules under two of its suffixes
/// (`||analytics.yahoo.com^` and `||ups.analytics.yahoo.com^`).
#[test]
fn blocklist_naive_reports_the_indexed_rule_on_the_seed_7_capture() {
    use pii_suite::blocklist::lists;
    use pii_suite::prelude::*;
    use std::collections::HashSet;

    let universe = Universe::generate_with(UniverseSpec {
        seed: 7,
        ..UniverseSpec::default()
    });
    let psl = PublicSuffixList::embedded();
    let dataset = Crawler::new(&universe).run(BrowserKind::Firefox88Vanilla);
    let requests: HashSet<(String, &str, &str, bool, ResourceKind)> = dataset
        .crawls
        .iter()
        .flat_map(|crawl| {
            crawl.records.iter().map(|rec| {
                let host = rec.request.url.host.as_str();
                (
                    rec.request.url.text(),
                    host,
                    crawl.domain.as_str(),
                    !psl.same_site(host, &crawl.domain),
                    rec.request.kind,
                )
            })
        })
        .collect();
    assert!(requests.len() > 1_000, "{} requests", requests.len());
    let mut blocked = 0;
    for _ in 0..4 {
        for set in [lists::easylist(), lists::easyprivacy(), lists::combined()] {
            for (url, host, top, third, kind) in &requests {
                let info = RequestInfo {
                    url,
                    host,
                    top_level_host: top,
                    is_third_party: *third,
                    kind: *kind,
                };
                let indexed = set.matches(&info);
                assert_eq!(indexed, set.matches_naive(&info), "{url}");
                blocked += usize::from(indexed.is_blocked());
            }
        }
    }
    assert!(blocked > 0);
}
