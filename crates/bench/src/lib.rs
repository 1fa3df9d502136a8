//! Shared fixtures for the benchmark suite.
//!
//! The paper's tables and figures are regenerated by `pii-study full` and
//! checked by `tests/calibration.rs`; the end-to-end benchmark is
//! `perfbench/`. The benches here measure one ablation or one substrate
//! each:
//!
//! | bench target | measures |
//! |---|---|
//! | `pipeline`  | §3.2 crawl + §4.1 detection (E1/E8) |
//! | `hashes`    | micro: digest throughput |
//! | `encodings` | micro: codec throughput and the HTML/DOM substrate |
//! | `tokens`    | ablation: candidate-set depth & precompute-vs-rehash |
//! | `scan`      | ablation: Aho–Corasick vs naive multi-pattern scan |
//! | `blocklist` | ablation: indexed vs linear filter matching |
//! | `store`     | archive replay vs re-crawl at 10x |
//! | `streaming` | crawl → archive → replay at 1x/10x/100x (`BENCH_streaming.json`) |

#![forbid(unsafe_code)]

use pii_analysis::{Study, StudyResults};
use std::sync::OnceLock;

/// The full study, run once per bench binary.
pub fn study() -> &'static StudyResults {
    static S: OnceLock<StudyResults> = OnceLock::new();
    S.get_or_init(|| Study::paper().run())
}

/// A long realistic haystack: every delivered third-party request URL from
/// the capture, concatenated.
pub fn url_corpus() -> &'static String {
    static C: OnceLock<String> = OnceLock::new();
    C.get_or_init(|| {
        let r = study();
        let mut out = String::new();
        for crawl in r.dataset.completed() {
            for rec in crawl.delivered() {
                out.push_str(&rec.request.url.to_string());
                out.push('\n');
            }
        }
        out
    })
}
