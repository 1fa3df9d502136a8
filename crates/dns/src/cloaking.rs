//! CNAME-cloaking detection (the paper's [21] pipeline).
//!
//! A first-party subdomain like `metrics.shop.com` that CNAMEs into a known
//! tracking provider (`shop.com.sc.omtrdc.net`) is a hidden third party.
//! The detector walks each resolution's CNAME chain and matches every target
//! against a blocklist of cloaking-provider domains, mirroring the
//! Adguard/NextDNS lists the paper uses.

use crate::psl::PublicSuffixList;
use crate::zones::Resolution;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Cloaking providers embedded in the simulation — the well-known set from
/// the Adguard `cname-trackers` and NextDNS lists. `omtrdc.net` and
/// `data.adobedc.net` are Adobe Experience Cloud, which Table 2 row 10
/// ("adobe_cname") identifies as the cloaked receiver in this dataset.
const EMBEDDED_PROVIDERS: &[&str] = &[
    "omtrdc.net",
    "adobedc.net",
    "2o7.net",
    "eulerian.net",
    "at-o.net",
    "actonservice.com",
    "trackedlink.net",
    "starman.ai",
    "wizaly.com",
    "afid.net",
    "intentmedia.net",
    "partner.intuit.com",
];

/// A positive cloaking finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloakedTracker {
    /// The first-party-looking host that was queried.
    pub query_host: String,
    /// The CNAME target that matched the blocklist.
    pub cname_target: String,
    /// Registrable domain of the tracking provider (e.g. `omtrdc.net`).
    pub provider_domain: String,
}

/// Matches CNAME chains against a cloaking-provider blocklist.
#[derive(Debug, Clone)]
pub struct CloakingDetector {
    providers: HashSet<String>,
}

impl CloakingDetector {
    /// Build from an explicit provider list (registrable domains).
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(providers: I) -> Self {
        CloakingDetector {
            providers: providers
                .into_iter()
                .map(|s| s.into().to_ascii_lowercase())
                .collect(),
        }
    }

    /// The embedded Adguard/NextDNS-style snapshot.
    pub fn embedded() -> Self {
        Self::new(EMBEDDED_PROVIDERS.iter().copied())
    }

    /// Number of provider domains on the list.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// Check one resolution. Returns the first CNAME target whose
    /// registrable domain is a known cloaking provider *different from the
    /// query's own site* (a site CNAMEing within itself is not cloaking).
    pub fn detect(
        &self,
        psl: &PublicSuffixList,
        query_host: &str,
        resolution: &Resolution,
    ) -> Option<CloakedTracker> {
        let query_rd = psl.registrable_domain_cow(query_host)?;
        for target in &resolution.cname_chain {
            let Some(target_rd) = psl.registrable_domain_cow(target) else {
                continue;
            };
            if target_rd != query_rd && self.providers.contains(&*target_rd) {
                return Some(CloakedTracker {
                    query_host: query_host.to_string(),
                    cname_target: target.clone(),
                    provider_domain: target_rd.into_owned(),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::{Record, ZoneStore};

    fn world() -> (PublicSuffixList, ZoneStore, CloakingDetector) {
        let mut z = ZoneStore::new();
        z.insert("metrics.shop.com", Record::cname("shop.com.sc.omtrdc.net"));
        z.insert("shop.com.sc.omtrdc.net", Record::a("203.0.113.1"));
        z.insert("www.shop.com", Record::cname("lb.shop.com"));
        z.insert("lb.shop.com", Record::a("203.0.113.2"));
        z.insert("deep.shop.com", Record::cname("edge.cdn-host.net"));
        z.insert("edge.cdn-host.net", Record::a("203.0.113.3"));
        (
            PublicSuffixList::embedded(),
            z,
            CloakingDetector::embedded(),
        )
    }

    #[test]
    fn detects_adobe_cloaking() {
        let (psl, z, det) = world();
        let res = z.resolve("metrics.shop.com");
        let hit = det.detect(&psl, "metrics.shop.com", &res).unwrap();
        assert_eq!(hit.provider_domain, "omtrdc.net");
        assert_eq!(hit.cname_target, "shop.com.sc.omtrdc.net");
    }

    #[test]
    fn internal_cname_is_not_cloaking() {
        let (psl, z, det) = world();
        let res = z.resolve("www.shop.com");
        assert!(det.detect(&psl, "www.shop.com", &res).is_none());
    }

    #[test]
    fn unknown_cdn_is_not_cloaking() {
        let (psl, z, det) = world();
        let res = z.resolve("deep.shop.com");
        assert!(det.detect(&psl, "deep.shop.com", &res).is_none());
    }

    #[test]
    fn no_cname_no_finding() {
        let (psl, _, det) = world();
        let res = Resolution {
            cname_chain: vec![],
            address: Some("x".into()),
        };
        assert!(det.detect(&psl, "shop.com", &res).is_none());
    }

    #[test]
    fn subdomain_of_provider_matches() {
        let (psl, _, det) = world();
        let res = Resolution {
            cname_chain: vec!["anything.eulerian.net".into()],
            address: Some("x".into()),
        };
        assert!(det.detect(&psl, "t.shop.com", &res).is_some());
    }

    #[test]
    fn custom_list() {
        let det = CloakingDetector::new(["mytracker.example"]);
        assert_eq!(det.len(), 1);
    }
}
