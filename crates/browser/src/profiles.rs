//! The six browser profiles of §7.1, in their vanilla/bare settings.
//!
//! Modelled behaviours, per vendor documentation of the era:
//!
//! | Browser      | 3p cookies | 3p storage      | tracker requests        |
//! |--------------|-----------|------------------|-------------------------|
//! | Firefox 88*  | allowed   | shared           | allowed                 |
//! | Chrome 93    | allowed   | shared           | allowed                 |
//! | Opera 79     | allowed   | shared           | allowed                 |
//! | Safari 14    | blocked   | partitioned (ITP)| allowed                 |
//! | Firefox 92   | blocked for known trackers (ETP) | allowed |
//! | Brave 1.29   | blocked   | partitioned      | **blocked** (Shields, CNAME-aware, 8 known misses) |
//!
//! *Firefox 88 is the capture browser of §3.2, ETP turned off.
//!
//! None of the cookie/storage measures touches PII that rides in URIs,
//! payload bodies, or Referer headers — which is the paper's point: only
//! Brave's request blocking moves the needle, and even it misses eight
//! receiver domains (footnote 4).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The browsers evaluated in §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrowserKind {
    /// Firefox 88, ETP off — the §3.2 capture configuration.
    Firefox88Vanilla,
    Chrome93,
    Opera79,
    Safari14,
    /// Firefox with Enhanced Tracking Protection (default on).
    Firefox92Etp,
    Brave129,
}

impl BrowserKind {
    pub const ALL: [BrowserKind; 6] = [
        BrowserKind::Firefox88Vanilla,
        BrowserKind::Chrome93,
        BrowserKind::Opera79,
        BrowserKind::Safari14,
        BrowserKind::Firefox92Etp,
        BrowserKind::Brave129,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BrowserKind::Firefox88Vanilla => "Firefox 88 (vanilla)",
            BrowserKind::Chrome93 => "Chrome 93",
            BrowserKind::Opera79 => "Opera 79",
            BrowserKind::Safari14 => "Safari 14 (ITP)",
            BrowserKind::Firefox92Etp => "Firefox 92 (ETP)",
            BrowserKind::Brave129 => "Brave 1.29 (Shields)",
        }
    }

    /// Build the behaviour profile for this browser.
    pub fn profile(self) -> BrowserProfile {
        match self {
            BrowserKind::Firefox88Vanilla | BrowserKind::Chrome93 | BrowserKind::Opera79 => {
                BrowserProfile {
                    kind: self,
                    block_third_party_cookies: false,
                    partition_third_party_storage: false,
                    etp_tracker_cookie_blocking: false,
                    shields: None,
                    enforce_strict_referrer: false,
                }
            }
            BrowserKind::Safari14 => BrowserProfile {
                kind: self,
                block_third_party_cookies: true,
                partition_third_party_storage: true,
                etp_tracker_cookie_blocking: false,
                shields: None,
                enforce_strict_referrer: false,
            },
            BrowserKind::Firefox92Etp => BrowserProfile {
                kind: self,
                block_third_party_cookies: true,
                partition_third_party_storage: false,
                etp_tracker_cookie_blocking: true,
                shields: None,
                enforce_strict_referrer: false,
            },
            BrowserKind::Brave129 => BrowserProfile {
                kind: self,
                block_third_party_cookies: true,
                partition_third_party_storage: true,
                etp_tracker_cookie_blocking: false,
                shields: Some(Shields::v1_29()),
                enforce_strict_referrer: false,
            },
        }
    }
}

/// Brave Shields: a request blocker keyed on registrable tracker domains,
/// CNAME-aware since Brave 1.25.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shields {
    /// Registrable domains whose requests are dropped.
    blocked_domains: HashSet<String>,
    /// Shields also breaks one site's CAPTCHA widget (nykaa.com, §7.1);
    /// this is the registrable domain of that widget.
    pub blocked_captcha_host: String,
}

/// The eight receiver domains Brave 1.29 misses (§7.1 footnote 4).
pub const BRAVE_MISSES: [&str; 8] = [
    "aliyun.com",
    "cartsync.io",
    "gravatar.com",
    "pix.herokuapp.com",
    "intercom.io",
    "lmcdn.ru",
    "okta-emea.com",
    "zendesk.com",
];

impl Shields {
    /// The Brave 1.29 list: every receiver in the simulated catalog except
    /// the documented misses, plus the Adobe CNAME target and the strict
    /// CAPTCHA widget.
    pub fn v1_29() -> Shields {
        let mut blocked: HashSet<String> = pii_web::tracker::catalog()
            .iter()
            .map(|p| p.domain.to_string())
            .collect();
        for miss in BRAVE_MISSES {
            blocked.remove(miss);
        }
        // The catalog's herokuapp entry is its own registrable domain; make
        // sure no broader rule catches it.
        blocked.remove("herokuapp.com");
        Shields {
            blocked_domains: blocked,
            blocked_captcha_host: "strict-captcha.net".to_string(),
        }
    }

    /// Should a request to `host` (resolving through `cname_chain`) be
    /// dropped? Matching is per registrable-domain suffix, and the CNAME
    /// chain is consulted (Brave's "CNAME uncloaking").
    pub fn blocks(
        &self,
        psl: &pii_dns::PublicSuffixList,
        host: &str,
        cname_chain: &[String],
    ) -> bool {
        std::iter::once(host)
            .chain(cname_chain.iter().map(String::as_str))
            .any(|h| {
                psl.registrable_domain_cow(h).is_some_and(|rd| {
                    self.blocked_domains.contains(rd.as_ref()) || self.blocked_captcha_host == rd
                })
            })
    }
}

/// A browser's privacy behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrowserProfile {
    pub kind: BrowserKind,
    /// Never send/store cookies on cross-site requests.
    pub block_third_party_cookies: bool,
    /// Key third-party cookies by top-level site (ITP-style).
    pub partition_third_party_storage: bool,
    /// ETP: block cookies only for requests to *known trackers* (the
    /// Disconnect list, approximated here by the receiver catalog).
    pub etp_tracker_cookie_blocking: bool,
    /// Brave's request blocker, when present.
    pub shields: Option<Shields>,
    /// Counterfactual knob (not a 2021 default): enforce
    /// `strict-origin-when-cross-origin` even against a site's own
    /// `Referrer-Policy: unsafe-url`, truncating cross-origin referers to
    /// the origin. Kills the Figure 1.a channel — see
    /// `pii-analysis::counterfactual`.
    pub enforce_strict_referrer: bool,
}

impl BrowserProfile {
    /// Does this profile allow a third-party request to set/send cookies?
    pub fn third_party_cookies_allowed(&self, is_known_tracker: bool) -> bool {
        if self.block_third_party_cookies && !self.etp_tracker_cookie_blocking {
            return false;
        }
        if self.etp_tracker_cookie_blocking && is_known_tracker {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pii_dns::PublicSuffixList;

    #[test]
    fn six_profiles_build() {
        for kind in BrowserKind::ALL {
            let p = kind.profile();
            assert_eq!(p.kind, kind);
        }
    }

    #[test]
    fn only_brave_blocks_requests() {
        for kind in BrowserKind::ALL {
            let p = kind.profile();
            assert_eq!(p.shields.is_some(), kind == BrowserKind::Brave129);
        }
    }

    #[test]
    fn shields_block_facebook_but_miss_the_eight() {
        let shields = Shields::v1_29();
        let psl = PublicSuffixList::embedded();
        assert!(shields.blocks(&psl, "facebook.com", &[]));
        assert!(shields.blocks(&psl, "sub.criteo.com", &[]));
        for miss in BRAVE_MISSES {
            assert!(!shields.blocks(&psl, miss, &[]), "{miss} should be missed");
        }
    }

    #[test]
    fn shields_uncloak_cnames() {
        let shields = Shields::v1_29();
        let psl = PublicSuffixList::embedded();
        // metrics.shop.com looks first-party…
        assert!(!shields.blocks(&psl, "metrics.shop.com", &[]));
        // …until the CNAME chain reveals Adobe.
        assert!(shields.blocks(
            &psl,
            "metrics.shop.com",
            &["shop.com.sc.omtrdc.net".to_string()]
        ));
    }

    #[test]
    fn cookie_policies() {
        let vanilla = BrowserKind::Firefox88Vanilla.profile();
        assert!(vanilla.third_party_cookies_allowed(true));
        let safari = BrowserKind::Safari14.profile();
        assert!(!safari.third_party_cookies_allowed(false));
        let etp = BrowserKind::Firefox92Etp.profile();
        assert!(
            !etp.third_party_cookies_allowed(true),
            "tracker cookies blocked"
        );
        assert!(
            etp.third_party_cookies_allowed(false),
            "non-tracker 3p cookies pass"
        );
    }

    #[test]
    fn captcha_host_is_blocked_by_shields() {
        let shields = Shields::v1_29();
        let psl = PublicSuffixList::embedded();
        assert!(shields.blocks(&psl, "widget.strict-captcha.net", &[]));
        assert!(!shields.blocks(&psl, "captcha-widget.net", &[]));
    }
}
