//! The tracking-provider catalog.
//!
//! [`table2_providers`] encodes every row of the paper's Table 2 — provider
//! domain, leak method(s), encoding form, and `trackid` parameter — as
//! machine-readable variant specs. [`ordinary_receivers`] supplies the other
//! 80 receiver domains needed to reach the paper's 100 third-party
//! receivers, partitioned into the §5.2 strata:
//!
//! * 14 *auth-only* multi-sender receivers — consistent ID parameter but
//!   their tags only run during the authentication flow, so they fail the
//!   subpage-persistence test (34 candidates − 20 confirmed);
//! * 8 *inconsistent* multi-sender receivers — they receive PII from
//!   several senders but in different encodings, so no single ID value
//!   recurs across senders;
//! * 58 single-sender receivers — excluded by §5.2 because one appearance
//!   cannot demonstrate cross-site tracking.
//!
//! Calibration knobs (`brave_missed`, `payload`) mirror §7.1's footnote 4
//! (the eight receivers Brave 1.29 misses) and Table 1a's method marginals.

use crate::obfuscate::Obfuscation;
use crate::persona::PiiKind;
use crate::site::LeakMethod;
use pii_encodings::EncodingKind;
use pii_hashes::HashAlgorithm;
use serde::{Deserialize, Serialize};

/// How a receiver participates in the §5.2 persistent-tracking analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProviderClass {
    /// Table 2: consistent trackid, tag present on subpages → confirmed
    /// persistent tracker.
    PersistentTracker,
    /// Consistent trackid from >1 sender, but only fires in auth flows.
    AuthOnlyTracker,
    /// Multiple senders but mixed encodings → no shared ID value.
    InconsistentId,
    /// Appears for a single sender only.
    SingleAppearance,
}

/// One (method, chain, param, sender-count) variant of a provider, i.e. one
/// body row of Table 2.
#[derive(Debug, Clone)]
pub struct VariantSpec {
    pub senders: usize,
    pub method: LeakMethod,
    pub chain: Obfuscation,
    pub param: &'static str,
    pub pii: &'static [PiiKind],
}

/// A third-party receiver in the simulated web.
#[derive(Debug, Clone)]
pub struct TrackerProvider {
    /// Receiver label used in reports (Table 2 uses `adobe_cname` for the
    /// CNAME-cloaked Adobe endpoints).
    pub label: &'static str,
    /// Registrable domain requests resolve to (for `adobe_cname` this is the
    /// CNAME *target*; the visible request host is first-party).
    pub domain: &'static str,
    /// Endpoint path on the receiver.
    pub endpoint: &'static str,
    pub class: ProviderClass,
    /// Reached through a first-party CNAME-cloaked subdomain.
    pub cname_cloaked: bool,
    /// On Brave 1.29's documented miss list (§7.1 footnote 4).
    pub brave_missed: bool,
    pub variants: Vec<VariantSpec>,
}

impl TrackerProvider {
    /// Total sender count across variants.
    pub fn sender_count(&self) -> usize {
        self.variants.iter().map(|v| v.senders).sum()
    }
}

const EMAIL: &[PiiKind] = &[PiiKind::Email];
const EMAIL_NAME: &[PiiKind] = &[PiiKind::Email, PiiKind::Name];
const EMAIL_USER: &[PiiKind] = &[PiiKind::Email, PiiKind::Username];
const USER_ONLY: &[PiiKind] = &[PiiKind::Username];

fn sha256() -> Obfuscation {
    Obfuscation::hash(HashAlgorithm::Sha256)
}

fn md5() -> Obfuscation {
    Obfuscation::hash(HashAlgorithm::Md5)
}

fn sha1() -> Obfuscation {
    Obfuscation::hash(HashAlgorithm::Sha1)
}

fn b64() -> Obfuscation {
    Obfuscation::encode(EncodingKind::Base64)
}

fn plain() -> Obfuscation {
    Obfuscation::plaintext()
}

/// The 20 confirmed persistent-tracking providers — Table 2, row for row.
/// All hashes are of the full email address, as the paper notes.
pub fn table2_providers() -> Vec<TrackerProvider> {
    use LeakMethod::{Cookie, Payload, Uri};
    let p = |label, domain, endpoint, cname, brave, variants| TrackerProvider {
        label,
        domain,
        endpoint,
        class: ProviderClass::PersistentTracker,
        cname_cloaked: cname,
        brave_missed: brave,
        variants,
    };
    vec![
        // 1. facebook.com — 72 senders SHA256 via URI/payload, 2 MD5 via URI.
        p(
            "facebook.com",
            "facebook.com",
            "/tr",
            false,
            false,
            vec![
                VariantSpec {
                    senders: 47,
                    method: Uri,
                    chain: sha256(),
                    param: "udff[em]",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 25,
                    method: Payload,
                    chain: sha256(),
                    param: "udff[em]",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 2,
                    method: Uri,
                    chain: md5(),
                    param: "ud[em]",
                    pii: EMAIL,
                },
            ],
        ),
        // 2. criteo.com — 26 MD5, 4 SHA256, 5 plaintext, 2 SHA256(MD5).
        p(
            "criteo.com",
            "criteo.com",
            "/event",
            false,
            false,
            vec![
                VariantSpec {
                    senders: 26,
                    method: Uri,
                    chain: md5(),
                    param: "p0",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 4,
                    method: Uri,
                    chain: sha256(),
                    param: "p0",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 5,
                    method: Uri,
                    chain: plain(),
                    param: "p1",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 2,
                    method: Uri,
                    chain: Obfuscation::sha256_of_md5(),
                    param: "p0",
                    pii: EMAIL,
                },
            ],
        ),
        // 3. pinterest.com — 25 SHA256, 8 MD5, all URI, param `pd`.
        p(
            "pinterest.com",
            "pinterest.com",
            "/v3/track",
            false,
            false,
            vec![
                VariantSpec {
                    senders: 25,
                    method: Uri,
                    chain: sha256(),
                    param: "pd",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 8,
                    method: Uri,
                    chain: md5(),
                    param: "pd",
                    pii: EMAIL,
                },
            ],
        ),
        // 4. snapchat.com — 18 SHA256 URI/payload, 2 MD5 payload, `u_hem`.
        p(
            "snapchat.com",
            "snapchat.com",
            "/p",
            false,
            false,
            vec![
                VariantSpec {
                    senders: 12,
                    method: Uri,
                    chain: sha256(),
                    param: "u_hem",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 6,
                    method: Payload,
                    chain: sha256(),
                    param: "u_hem",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 2,
                    method: Payload,
                    chain: md5(),
                    param: "u_hem",
                    pii: EMAIL,
                },
            ],
        ),
        // 5. cquotient.com (Salesforce Commerce Cloud Einstein).
        p(
            "cquotient.com",
            "cquotient.com",
            "/pixel",
            false,
            false,
            vec![VariantSpec {
                senders: 7,
                method: Uri,
                chain: sha256(),
                param: "emailId",
                pii: EMAIL,
            }],
        ),
        // 6. bluecore.com — BASE64 in the payload body.
        p(
            "bluecore.com",
            "bluecore.com",
            "/track",
            false,
            false,
            vec![VariantSpec {
                senders: 5,
                method: Payload,
                chain: b64(),
                param: "data",
                pii: EMAIL_NAME,
            }],
        ),
        // 7. klaviyo.com — BASE64 in the URI.
        p(
            "klaviyo.com",
            "klaviyo.com",
            "/api/identify",
            false,
            false,
            vec![VariantSpec {
                senders: 4,
                method: Uri,
                chain: b64(),
                param: "data",
                pii: EMAIL_NAME,
            }],
        ),
        // 8. oracleinfinity.io.
        p(
            "oracleinfinity.io",
            "oracleinfinity.io",
            "/collect",
            false,
            false,
            vec![VariantSpec {
                senders: 4,
                method: Uri,
                chain: sha256(),
                param: "email_hash",
                pii: EMAIL,
            }],
        ),
        // 9. rlcdn.com (LiveRamp).
        p(
            "rlcdn.com",
            "rlcdn.com",
            "/sync",
            false,
            false,
            vec![VariantSpec {
                senders: 4,
                method: Uri,
                chain: sha1(),
                param: "s",
                pii: EMAIL,
            }],
        ),
        // 10. adobe_cname — reached through CNAME-cloaked first-party
        // subdomains; 3 URI senders (Table 2) plus the 5 cookie-method
        // senders §4.2.1 reports (the single cookie receiver of Table 1a).
        p(
            "adobe_cname",
            "omtrdc.net",
            "/b/ss",
            true,
            false,
            vec![
                VariantSpec {
                    senders: 3,
                    method: Uri,
                    chain: sha256(),
                    param: "vid",
                    pii: EMAIL,
                },
                VariantSpec {
                    senders: 5,
                    method: Cookie,
                    chain: sha256(),
                    param: "v_user",
                    pii: EMAIL,
                },
            ],
        ),
        // 11. castle.io — plaintext (!) in the URI.
        p(
            "castle.io",
            "castle.io",
            "/v1/monitor",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: plain(),
                param: "up",
                pii: EMAIL_USER,
            }],
        ),
        // 12. custora.com — SHA1 uid in the URI (mirrored into a first-party
        // `_custrack1_identified` cookie, which is why Table 2 annotates the
        // method as URI/cookie; the cookie itself never crosses origins).
        p(
            "custora.com",
            "custora.com",
            "/track",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha1(),
                param: "uid",
                pii: EMAIL,
            }],
        ),
        // 13. dotomi.com.
        p(
            "dotomi.com",
            "dotomi.com",
            "/profile",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha256(),
                param: "dtm_email_hash",
                pii: EMAIL,
            }],
        ),
        // 14. inside-graph.com — plaintext in the payload.
        p(
            "inside-graph.com",
            "inside-graph.com",
            "/ig",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Payload,
                chain: plain(),
                param: "md",
                pii: EMAIL,
            }],
        ),
        // 15. krxd.net (Salesforce Krux).
        p(
            "krxd.net",
            "krxd.net",
            "/pixel",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha256(),
                param: "_kua_email_sha256",
                pii: EMAIL,
            }],
        ),
        // 16. pxf.io (Impact) — SHA1 in the payload.
        p(
            "pxf.io",
            "pxf.io",
            "/events",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Payload,
                chain: sha1(),
                param: "custemail",
                pii: EMAIL,
            }],
        ),
        // 17. taboola.com — missed by both blocklists (§7.2).
        p(
            "taboola.com",
            "taboola.com",
            "/step",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha256(),
                param: "eflp",
                pii: EMAIL,
            }],
        ),
        // 18. thebrighttag.com (Signal).
        p(
            "thebrighttag.com",
            "thebrighttag.com",
            "/tag",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha256(),
                param: "_cb_bt_data",
                pii: EMAIL,
            }],
        ),
        // 19. yahoo.com.
        p(
            "yahoo.com",
            "yahoo.com",
            "/sync",
            false,
            false,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: sha256(),
                param: "he",
                pii: EMAIL,
            }],
        ),
        // 20. zendesk.com — BASE64 `data`, on Brave's miss list AND missed
        // by both blocklists.
        p(
            "zendesk.com",
            "zendesk.com",
            "/identify",
            false,
            true,
            vec![VariantSpec {
                senders: 2,
                method: Uri,
                chain: b64(),
                param: "data",
                pii: EMAIL,
            }],
        ),
    ]
}

/// The non-Table-2 receivers: 14 auth-only consistent-ID trackers, 8
/// inconsistent-encoding receivers, and 58 single-appearance receivers.
pub fn ordinary_receivers() -> Vec<TrackerProvider> {
    use LeakMethod::{Payload, Uri};
    use ProviderClass::{AuthOnlyTracker, InconsistentId, SingleAppearance};
    let mut out = Vec::new();
    let auth_only =
        |label: &'static str, senders: usize, param: &'static str, brave: bool| TrackerProvider {
            label,
            domain: label,
            endpoint: "/collect",
            class: AuthOnlyTracker,
            cname_cloaked: false,
            brave_missed: brave,
            variants: vec![VariantSpec {
                senders,
                method: Uri,
                chain: sha256(),
                param,
                pii: EMAIL,
            }],
        };
    // 14 auth-only receivers (fail the §5.2 subpage-persistence test).
    // Google and Adobe appear with multiple domains, as §4.2 observes.
    // Google Analytics infamously receives the email in the clear (a `uid`
    // set straight from the identify call) — the biggest plaintext receiver.
    out.push(TrackerProvider {
        label: "google-analytics.com",
        domain: "google-analytics.com",
        endpoint: "/collect",
        class: AuthOnlyTracker,
        cname_cloaked: false,
        brave_missed: false,
        variants: vec![VariantSpec {
            senders: 20,
            method: Uri,
            chain: plain(),
            param: "uid",
            pii: EMAIL,
        }],
    });
    out.push(auth_only("googletagmanager.com", 12, "uid", false));
    out.push(auth_only("bing.com", 9, "mid", false));
    out.push(auth_only("demdex.net", 8, "cid", false));
    out.push(auth_only("yandex.ru", 6, "ymuid", false));
    out.push(auth_only("hotjar.com", 5, "identity", false));
    out.push(auth_only("mixpanel.com", 4, "distinct_id", false));
    out.push(auth_only("everesttech.net", 4, "euid", false));
    out.push(auth_only("intercom.io", 3, "user_hash", true));
    out.push(auth_only("attentivemobile.com", 3, "eh", false));
    out.push(auth_only("listrakbi.com", 3, "_ltk", false));
    out.push(auth_only("granify.com", 2, "guid", false));
    out.push(auth_only("heapanalytics.com", 2, "identity", false));
    out.push(auth_only("fullstory.com", 2, "uid", false));

    // 8 inconsistent-ID receivers: >1 sender but *every sender ships a
    // different encoding*, so no single ID value recurs and §5.2's stage-2
    // filter drops them. One variant per sender, each with a distinct chain.
    let inconsistent = |label: &'static str, chains: Vec<Obfuscation>| TrackerProvider {
        label,
        domain: label,
        endpoint: "/match",
        class: InconsistentId,
        cname_cloaked: false,
        brave_missed: false,
        variants: chains
            .into_iter()
            .map(|chain| VariantSpec {
                senders: 1,
                method: Uri,
                chain,
                param: "pdata",
                pii: EMAIL,
            })
            .collect(),
    };
    let h = |alg: HashAlgorithm| Obfuscation::hash(alg);
    out.push(inconsistent(
        "doubleclick.net",
        vec![
            h(HashAlgorithm::Sha256),
            h(HashAlgorithm::Md5),
            h(HashAlgorithm::Sha1),
            h(HashAlgorithm::Sha224),
            h(HashAlgorithm::Sha384),
            h(HashAlgorithm::Sha512),
            h(HashAlgorithm::Sha3_256),
            h(HashAlgorithm::Sha3_512),
            h(HashAlgorithm::Ripemd160),
            h(HashAlgorithm::Ripemd128),
            h(HashAlgorithm::Blake2b),
            h(HashAlgorithm::Whirlpool),
            Obfuscation::encode(EncodingKind::Base64),
            Obfuscation::encode(EncodingKind::Base32),
            Obfuscation::encode(EncodingKind::Base58),
            h(HashAlgorithm::Ripemd256),
        ],
    ));
    out.push(inconsistent(
        "quantserve.com",
        vec![
            h(HashAlgorithm::Sha3_224),
            h(HashAlgorithm::Ripemd320),
            Obfuscation::encode(EncodingKind::Base32Hex),
        ],
    ));
    out.push(inconsistent(
        "scorecardresearch.com",
        vec![
            h(HashAlgorithm::Snefru256),
            h(HashAlgorithm::Sha3_384),
            Obfuscation::encode(EncodingKind::Rot13),
        ],
    ));
    out.push(inconsistent(
        "segment.io",
        vec![h(HashAlgorithm::Md2), h(HashAlgorithm::Md4)],
    ));
    out.push(inconsistent(
        "amplitude.com",
        vec![
            h(HashAlgorithm::Snefru128),
            Obfuscation::encode(EncodingKind::Base64Url),
        ],
    ));
    out.push(inconsistent(
        "branch.io",
        vec![h(HashAlgorithm::Whirlpool), h(HashAlgorithm::Blake2b)],
    ));
    out.push(inconsistent(
        "monetate.net",
        vec![h(HashAlgorithm::Sha512), plain()],
    ));
    out.push(inconsistent(
        "dynamicyield.com",
        vec![h(HashAlgorithm::Sha384), h(HashAlgorithm::Sha3_256)],
    ));

    // 58 single-appearance receivers. The first six are the remaining
    // Brave-missed domains; twelve use the payload method (Table 1a's
    // 17 payload receivers = facebook + snapchat + bluecore + inside-graph
    // + pxf + these); the rest are URI.
    let single = |label: &'static str, method: LeakMethod, chain: Obfuscation, brave: bool| {
        TrackerProvider {
            label,
            domain: label,
            endpoint: "/t",
            class: SingleAppearance,
            cname_cloaked: false,
            brave_missed: brave,
            variants: vec![VariantSpec {
                senders: 1,
                method,
                chain,
                param: "em",
                pii: EMAIL,
            }],
        }
    };
    for (label, brave) in [
        ("aliyun.com", true),
        ("cartsync.io", true),
        ("gravatar.com", true),
        ("pix.herokuapp.com", true),
        ("lmcdn.ru", true),
        ("okta-emea.com", true),
    ] {
        let method = if label == "cartsync.io" { Payload } else { Uri };
        out.push(single(label, method, sha256(), brave));
    }
    // 11 more payload-method singles (cartsync.io above is the twelfth).
    for label in [
        "braze.com",
        "omnisend.com",
        "drip.com",
        "sailthru.com",
        "cordial.io",
        "iterable.com",
        "exponea.com",
        "webengage.com",
        "moengage.com",
        "clevertap.com",
        "leanplum.com",
    ] {
        out.push(single(label, Payload, sha256(), false));
    }
    // 41 URI singles with a spread of encodings for workload realism.
    // Encoding key: 0=sha256 1=md5 2=plaintext 3=base64 4=sha512
    // 5=ripemd160 6=sha384 7=blake2b — the mix calibrates Table 1b.
    let uri_singles: &[(&'static str, u8)] = &[
        ("quoracdn.net", 4),
        ("outbrain.com", 3),
        ("revcontent.com", 0),
        ("adnxs.com", 3),
        ("rubiconproject.com", 0),
        ("pubmatic.com", 3),
        ("openx.net", 0),
        ("casalemedia.com", 3),
        ("bidswitch.net", 0),
        ("smartadserver.com", 2),
        ("teads.tv", 0),
        ("sharethrough.com", 3),
        ("triplelift.com", 0),
        ("33across.com", 2),
        ("gumgum.com", 0),
        ("sovrn.com", 3),
        ("adroll.com", 0),
        ("perfectaudience.com", 2),
        ("rtbhouse.com", 0),
        ("steelhousemedia.com", 3),
        ("sociomantic.com", 0),
        ("bronto.com", 2),
        ("emarsys.com", 0),
        ("insider.com.tr", 2),
        ("adoric.com", 6),
        ("sleeknote.com", 2),
        ("wisepops.com", 7),
        ("optimonk.com", 2),
        ("yotpo.com", 0),
        ("bazaarvoice.com", 2),
        ("powerreviews.com", 0),
        ("searchanise.com", 2),
        ("klevu.com", 0),
        ("algolia-insights.com", 2),
        ("constructor.io", 0),
        ("unbxd.com", 1),
        ("nosto.com", 0),
        ("findify.io", 2),
        ("clerk.io", 0),
        ("loopcommerce.net", 1),
        ("zoovu.com", 5),
    ];
    for &(label, enc) in uri_singles {
        let chain = match enc {
            0 => sha256(),
            1 => md5(),
            2 => plain(),
            3 => b64(),
            4 => h(HashAlgorithm::Sha512),
            5 => h(HashAlgorithm::Ripemd160),
            6 => h(HashAlgorithm::Sha384),
            _ => h(HashAlgorithm::Blake2b),
        };
        out.push(single(label, Uri, chain, false));
    }
    // Table 1c's lone username-only sender: quoracdn receives the hashed
    // *username*, never the email.
    for p in out.iter_mut() {
        if p.label == "quoracdn.net" {
            for v in p.variants.iter_mut() {
                v.pii = USER_ONLY;
                v.param = "uname_hash";
            }
        }
    }
    out
}

/// The full 100-receiver catalog.
pub fn full_catalog() -> Vec<TrackerProvider> {
    let mut all = table2_providers();
    all.extend(ordinary_receivers());
    all
}

/// [`full_catalog`], built once per process: the catalog is a constant,
/// and browsers, blocklists and report labels read it without owning it.
pub fn catalog() -> &'static [TrackerProvider] {
    static CATALOG: std::sync::OnceLock<Vec<TrackerProvider>> = std::sync::OnceLock::new();
    CATALOG.get_or_init(full_catalog)
}

/// Reporting label for a wire-level receiver domain, derived from the
/// catalog. For CNAME-cloaked providers the detector sees the unmasked
/// provider domain (`omtrdc.net`) while the paper's tables report the
/// catalog label (`adobe_cname`); for every other provider the two
/// coincide. This is the single source of truth for that mapping — both
/// report rendering and the end-to-end ground-truth comparison use it.
pub fn reporting_label(domain: &str) -> String {
    catalog()
        .iter()
        .find(|p| p.domain == domain)
        .map(|p| p.label.to_string())
        .unwrap_or_else(|| domain.to_string())
}

/// Inverse of [`reporting_label`]: the registrable domain the detector
/// attributes to a catalog receiver label.
pub fn detector_domain(label: &str) -> String {
    catalog()
        .iter()
        .find(|p| p.label == label)
        .map(|p| p.domain.to_string())
        .unwrap_or_else(|| label.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_domain_mapping_is_catalog_driven_and_bijective() {
        assert_eq!(reporting_label("omtrdc.net"), "adobe_cname");
        assert_eq!(detector_domain("adobe_cname"), "omtrdc.net");
        // Uncloaked providers map to themselves…
        assert_eq!(reporting_label("facebook.com"), "facebook.com");
        assert_eq!(detector_domain("facebook.com"), "facebook.com");
        // …and so do domains outside the catalog.
        assert_eq!(reporting_label("example.org"), "example.org");
        // Round-trip over the whole catalog.
        for p in full_catalog() {
            assert_eq!(reporting_label(&detector_domain(p.label)), p.label);
            assert_eq!(detector_domain(&reporting_label(p.domain)), p.domain);
        }
    }

    #[test]
    fn table2_has_twenty_providers_with_paper_sender_counts() {
        let t2 = table2_providers();
        assert_eq!(t2.len(), 20);
        let counts: Vec<(&str, usize)> = t2.iter().map(|p| (p.label, p.sender_count())).collect();
        assert_eq!(counts[0], ("facebook.com", 74));
        assert_eq!(counts[1], ("criteo.com", 37));
        assert_eq!(counts[2], ("pinterest.com", 33));
        assert_eq!(counts[3], ("snapchat.com", 20));
        assert_eq!(counts[4], ("cquotient.com", 7));
        assert_eq!(counts[5], ("bluecore.com", 5));
        assert_eq!(counts[9], ("adobe_cname", 8));
        assert_eq!(counts[19], ("zendesk.com", 2));
    }

    #[test]
    fn catalog_has_exactly_one_hundred_receivers() {
        let all = full_catalog();
        assert_eq!(all.len(), 100);
        // Labels are unique.
        let mut labels: Vec<&str> = all.iter().map(|p| p.label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 100);
    }

    #[test]
    fn class_strata_match_section_5_2() {
        let all = full_catalog();
        let count = |class: ProviderClass| all.iter().filter(|p| p.class == class).count();
        assert_eq!(count(ProviderClass::PersistentTracker), 20);
        assert_eq!(count(ProviderClass::AuthOnlyTracker), 14);
        assert_eq!(count(ProviderClass::InconsistentId), 8);
        assert_eq!(count(ProviderClass::SingleAppearance), 58);
    }

    #[test]
    fn brave_miss_list_matches_footnote_4() {
        let all = full_catalog();
        let missed: Vec<&str> = all
            .iter()
            .filter(|p| p.brave_missed)
            .map(|p| p.label)
            .collect();
        assert_eq!(missed.len(), 8);
        for expected in [
            "aliyun.com",
            "cartsync.io",
            "gravatar.com",
            "pix.herokuapp.com",
            "intercom.io",
            "lmcdn.ru",
            "okta-emea.com",
            "zendesk.com",
        ] {
            assert!(missed.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn cookie_method_has_a_single_receiver() {
        let all = full_catalog();
        let cookie_receivers: Vec<&str> = all
            .iter()
            .filter(|p| p.variants.iter().any(|v| v.method == LeakMethod::Cookie))
            .map(|p| p.label)
            .collect();
        assert_eq!(cookie_receivers, vec!["adobe_cname"]);
    }

    #[test]
    fn payload_receiver_count_matches_table_1a() {
        let all = full_catalog();
        let payload = all
            .iter()
            .filter(|p| p.variants.iter().any(|v| v.method == LeakMethod::Payload))
            .count();
        assert_eq!(payload, 17, "Table 1a: 17 payload-method receivers");
    }

    #[test]
    fn inconsistent_receivers_have_multiple_encodings() {
        for p in ordinary_receivers() {
            if p.class == ProviderClass::InconsistentId {
                let mut chains: Vec<String> = p.variants.iter().map(|v| v.chain.label()).collect();
                chains.sort();
                chains.dedup();
                assert!(chains.len() > 1, "{} should mix encodings", p.label);
            }
        }
    }

    #[test]
    fn all_tracked_ids_are_full_email_hashes() {
        // Table 2: "All hashes are of full email address."
        for p in table2_providers() {
            for v in &p.variants {
                assert!(v.pii.contains(&PiiKind::Email), "{}", p.label);
            }
        }
    }
}
