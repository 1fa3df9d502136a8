//! # pii-dns
//!
//! The DNS substrate: a simulated zone store with A/CNAME records and a
//! chain-following resolver, a Public Suffix List engine for separating
//! first-party from third-party resources (§4.1 of the paper), and the
//! CNAME-cloaking detector that unmasks trackers hiding behind first-party
//! subdomains.
//!
//! The paper resolves CNAME records "for each subdomain of the visited
//! sites" and matches the answers against the Adguard/NextDNS cloaking
//! blocklists; [`cloaking::CloakingDetector`] reproduces that pipeline over
//! the simulated zones.
//!
//! ```
//! use pii_dns::{PublicSuffixList, ZoneStore, Record, CloakingDetector};
//!
//! let psl = PublicSuffixList::embedded();
//! assert_eq!(psl.registrable_domain("www.shop.co.jp").as_deref(), Some("shop.co.jp"));
//!
//! let mut zones = ZoneStore::new();
//! zones.insert("metrics.shop.com", Record::cname("shop.com.sc.omtrdc.net"));
//! let hit = CloakingDetector::embedded()
//!     .detect(&psl, "metrics.shop.com", &zones.resolve("metrics.shop.com"))
//!     .unwrap();
//! assert_eq!(hit.provider_domain, "omtrdc.net");
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod cloaking;
pub mod psl;
pub mod zonefile;
pub mod zones;

pub use cache::{CachingResolver, ResolverStats};
pub use cloaking::{CloakedTracker, CloakingDetector};
pub use psl::PublicSuffixList;
pub use zones::{Record, Resolution, ZoneStore};

/// Party relationship between a request host and the visited site, per the
/// paper's §4.1 classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// Same registrable domain (eTLD+1) as the visited site.
    First,
    /// Different registrable domain.
    Third,
    /// Same registrable domain on the surface, but CNAME-cloaked to a
    /// tracker: counted as third party by the paper.
    CnameCloaked,
}

/// Classify `request_host` relative to `site_host`, following CNAME chains
/// through `zones` and matching them against the cloaking `detector`.
pub fn classify_party(
    psl: &PublicSuffixList,
    zones: &ZoneStore,
    detector: &CloakingDetector,
    site_host: &str,
    request_host: &str,
) -> Party {
    let site_rd = psl.registrable_domain_cow(site_host);
    let req_rd = psl.registrable_domain_cow(request_host);
    if site_rd.is_some() && site_rd == req_rd {
        // Surface first-party: check for cloaking.
        let resolution = zones.resolve(request_host);
        if detector.detect(psl, request_host, &resolution).is_some() {
            return Party::CnameCloaked;
        }
        Party::First
    } else {
        Party::Third
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PublicSuffixList, ZoneStore, CloakingDetector) {
        let psl = PublicSuffixList::embedded();
        let mut zones = ZoneStore::new();
        zones.insert("shop.com", Record::a("203.0.113.10"));
        zones.insert("metrics.shop.com", Record::cname("shop.com.sc.omtrdc.net"));
        zones.insert("shop.com.sc.omtrdc.net", Record::a("203.0.113.99"));
        zones.insert("cdn.shop.com", Record::cname("shop.com"));
        let detector = CloakingDetector::embedded();
        (psl, zones, detector)
    }

    #[test]
    fn same_etld1_is_first_party() {
        let (psl, zones, det) = setup();
        assert_eq!(
            classify_party(&psl, &zones, &det, "shop.com", "www.shop.com"),
            Party::First
        );
    }

    #[test]
    fn different_etld1_is_third_party() {
        let (psl, zones, det) = setup();
        assert_eq!(
            classify_party(&psl, &zones, &det, "shop.com", "facebook.com"),
            Party::Third
        );
    }

    #[test]
    fn cloaked_subdomain_is_unmasked() {
        let (psl, zones, det) = setup();
        assert_eq!(
            classify_party(&psl, &zones, &det, "shop.com", "metrics.shop.com"),
            Party::CnameCloaked
        );
    }

    #[test]
    fn benign_internal_cname_stays_first_party() {
        let (psl, zones, det) = setup();
        assert_eq!(
            classify_party(&psl, &zones, &det, "shop.com", "cdn.shop.com"),
            Party::First
        );
    }
}
