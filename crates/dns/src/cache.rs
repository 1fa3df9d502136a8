//! A caching resolver front-end over [`crate::ZoneStore`].
//!
//! The crawler resolves the same tracker hosts thousands of times (every
//! subresource of every page of every site); a real measurement deployment
//! would sit behind a caching stub resolver. This wrapper memoises
//! resolutions and counts queries, so the crawl's DNS footprint — which the
//! CNAME-cloaking literature the paper builds on ([21], [22]) uses as a
//! detection signal — can be measured.

use crate::zones::{Resolution, ZoneStore};
use parking_lot::Mutex;
use pii_net::fault::{FaultPlan, FetchError};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Resolver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Total `resolve` calls.
    pub queries: usize,
    /// Calls served from the cache.
    pub cache_hits: usize,
    /// Resolutions that traversed at least one CNAME.
    pub aliased: usize,
}

impl ResolverStats {
    /// Cache hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// A thread-safe caching resolver. Cached resolutions are shared, so a
/// cache hit costs a reference count, not a copy of the CNAME chain.
pub struct CachingResolver<'a> {
    zones: &'a ZoneStore,
    cache: Mutex<HashMap<String, Arc<Resolution>>>,
    stats: Mutex<ResolverStats>,
}

impl<'a> CachingResolver<'a> {
    pub fn new(zones: &'a ZoneStore) -> Self {
        CachingResolver {
            zones,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(ResolverStats::default()),
        }
    }

    /// Resolve `name`, consulting the cache first.
    ///
    /// Telemetry note: `dns.queries` and `dns.aliased` are seed-deterministic,
    /// but `dns.cache_hits` is not — each crawl worker's resolver cache
    /// persists across whichever sites that worker happens to claim, so the
    /// hit pattern depends on scheduling (`pii_telemetry::is_scheduling_dependent`).
    pub fn resolve(&self, name: &str) -> Arc<Resolution> {
        let key = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        };
        pii_telemetry::counter("dns.queries", 1);
        {
            let cache = self.cache.lock();
            if let Some(hit) = cache.get(key.as_ref()) {
                let mut stats = self.stats.lock();
                stats.queries += 1;
                stats.cache_hits += 1;
                pii_telemetry::counter("dns.cache_hits", 1);
                return Arc::clone(hit);
            }
        }
        let resolution = Arc::new(self.zones.resolve(&key));
        let mut stats = self.stats.lock();
        stats.queries += 1;
        if resolution.is_aliased() {
            stats.aliased += 1;
            pii_telemetry::counter("dns.aliased", 1);
        }
        drop(stats);
        self.cache
            .lock()
            .insert(key.into_owned(), Arc::clone(&resolution));
        resolution
    }

    /// Resolve `name` under a fault plan: if the plan schedules a DNS-level
    /// failure for this host on this attempt, resolution fails *before*
    /// touching the cache or stats — exactly like a SERVFAIL never entering
    /// a stub resolver's cache.
    pub fn resolve_checked(
        &self,
        name: &str,
        plan: &FaultPlan,
        attempt: u32,
    ) -> Result<Arc<Resolution>, FetchError> {
        if let Some(error) = plan.dns_fault_for(name, attempt) {
            return Err(error);
        }
        Ok(self.resolve(name))
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ResolverStats {
        *self.stats.lock()
    }

    /// Number of cached names.
    pub fn cached(&self) -> usize {
        self.cache.lock().len()
    }

    /// Drop all cached entries (keeps stats).
    pub fn flush(&self) {
        self.cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::Record;

    fn zones() -> ZoneStore {
        let mut z = ZoneStore::new();
        z.insert("shop.com", Record::a("203.0.113.1"));
        z.insert("metrics.shop.com", Record::cname("shop.com.sc.omtrdc.net"));
        z.insert("shop.com.sc.omtrdc.net", Record::a("203.0.113.9"));
        z
    }

    #[test]
    fn caches_repeat_queries() {
        let z = zones();
        let r = CachingResolver::new(&z);
        let first = r.resolve("shop.com");
        let second = r.resolve("SHOP.COM"); // case-normalised
        assert_eq!(first, second);
        let stats = r.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(r.cached(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn counts_aliased_resolutions_once() {
        let z = zones();
        let r = CachingResolver::new(&z);
        r.resolve("metrics.shop.com");
        r.resolve("metrics.shop.com");
        let stats = r.stats();
        assert_eq!(stats.aliased, 1, "cache hits do not recount aliases");
    }

    #[test]
    fn flush_clears_cache_but_keeps_stats() {
        let z = zones();
        let r = CachingResolver::new(&z);
        r.resolve("shop.com");
        r.flush();
        assert_eq!(r.cached(), 0);
        assert_eq!(r.stats().queries, 1);
        r.resolve("shop.com");
        assert_eq!(r.stats().cache_hits, 0, "post-flush resolve is a miss");
    }

    #[test]
    fn checked_resolution_fails_per_plan_without_polluting_the_cache() {
        use pii_net::fault::{DomainSchedule, FaultPlan, FetchError};
        let z = zones();
        let r = CachingResolver::new(&z);
        let mut plan = FaultPlan::none();
        plan.set(
            "shop.com",
            DomainSchedule::Flaky {
                error: FetchError::DnsFailure,
                failures: 1,
            },
        );
        assert_eq!(
            r.resolve_checked("shop.com", &plan, 1),
            Err(FetchError::DnsFailure)
        );
        assert_eq!(r.cached(), 0, "failed resolutions are not cached");
        assert_eq!(r.stats().queries, 0, "failed resolutions are not counted");
        assert!(r.resolve_checked("shop.com", &plan, 2).is_ok());
        assert_eq!(r.cached(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let z = zones();
        let r = CachingResolver::new(&z);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        r.resolve("metrics.shop.com");
                    }
                });
            }
        });
        let stats = r.stats();
        assert_eq!(stats.queries, 200);
        assert!(stats.cache_hits >= 196, "hits: {}", stats.cache_hits);
    }
}
