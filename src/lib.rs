//! # pii-suite
//!
//! Umbrella crate for the reproduction of *"Alternative to third-party
//! cookies: Investigating persistent PII leakage-based web tracking"*
//! (Dao & Fukuda, CoNEXT '21).
//!
//! Re-exports every layer of the system so applications can depend on one
//! crate:
//!
//! ```
//! use pii_suite::prelude::*;
//!
//! let universe = Universe::generate();
//! let psl = PublicSuffixList::embedded();
//! // Crawl a handful of sites and look for PII leaks.
//! let targets: Vec<String> = universe.sender_sites().take(3)
//!     .map(|s| s.domain.clone()).collect();
//! let dataset = Crawler::new(&universe)
//!     .run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
//! let tokens = TokenSetBuilder::default().build(&universe.persona);
//! let report = LeakDetector::new(&tokens, &psl, &universe.zones).detect(&dataset);
//! assert_eq!(report.senders().len(), 3);
//! ```

#![forbid(unsafe_code)]

pub use pii_analysis as analysis;
pub use pii_blocklist as blocklist;
pub use pii_browser as browser;
pub use pii_core as core;
pub use pii_crawler as crawler;
pub use pii_dns as dns;
pub use pii_encodings as encodings;
pub use pii_hashes as hashes;
pub use pii_lint as lint;
pub use pii_net as net;
pub use pii_store as store;
pub use pii_telemetry as telemetry;
pub use pii_web as web;

/// The names most programs need.
pub mod prelude {
    pub use pii_analysis::{CaptureSource, Study, StudyResults};
    pub use pii_browser::engine::{Browser, PageContext};
    pub use pii_browser::profiles::BrowserKind;
    pub use pii_core::detect::{DetectionReport, LeakDetector};
    pub use pii_core::tokens::{TokenSet, TokenSetBuilder};
    pub use pii_core::tracking::{analyze, TrackingAnalysis};
    pub use pii_crawler::{CrawlDataset, Crawler};
    pub use pii_dns::{PublicSuffixList, ZoneStore};
    pub use pii_net::Url;
    pub use pii_store::{ArchiveMeta, ArchiveReader, ArchiveWriter};
    pub use pii_web::{Persona, Universe, UniverseSpec};
}
