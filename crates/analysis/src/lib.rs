//! # pii-analysis
//!
//! The experiment harness: every table and figure of the paper, regenerated
//! from the measurement pipeline and rendered next to the paper's published
//! value.
//!
//! | module | artifact |
//! |---|---|
//! | [`study`]      | one-call orchestration of the full §3–§5 pipeline |
//! | [`table1`]     | Table 1a/1b/1c — leakage by method / encoding / PII type |
//! | [`figure2`]    | Figure 2 — top-15 receiver domains |
//! | [`table2`]     | Table 2 — persistent-tracking providers |
//! | [`table3`]     | Table 3 — privacy-policy disclosure classes |
//! | [`table4`]     | Table 4 — EasyList/EasyPrivacy coverage |
//! | [`browsers`]   | §7.1 — browser countermeasures |
//! | [`aggregates`] | §4.2 headline numbers + §4.2.3 mailbox |
//! | [`degradation`]| fault-injection degradation + measured §3.2 funnel |
//! | [`streaming`]  | the study fold: live crawl or archive → detect → accumulators, in site order |
//! | [`dataset`]    | the paper's published artifact lists (CSV/JSON) |
//! | [`crowdsource`]| the paper's future-work extension: K-contributor study |
//! | [`ablations`]  | chain-depth recall and scanning-strategy experiments |
//! | [`report`]     | ASCII table rendering and paper-vs-measured rows |

#![forbid(unsafe_code)]

pub mod ablations;
pub mod aggregates;
pub mod browsers;
pub mod counterfactual;
pub mod crowdsource;
pub mod dataset;
pub mod degradation;
pub mod figure2;
pub mod report;
pub mod robustness;
pub mod streaming;
pub mod study;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

pub use report::{Comparison, Table};
pub use study::{CaptureSource, Study, StudyResults};
