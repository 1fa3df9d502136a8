//! Rule scoping: which workspace paths each rule applies to.
//!
//! Paths are workspace-relative with `/` separators. The scopes encode the
//! repo's architecture directly (see DESIGN §12):
//!
//! - W01/W05 are global: wall-clock reads and unjustified `unsafe` are
//!   never acceptable anywhere in the pipeline.
//! - W02 covers the crates whose iteration order can reach output bytes —
//!   analysis (tables), store (archive bytes), core (detection reports).
//! - W03 covers the three proven overflow hot spots: universe generation,
//!   archive offset accounting, retry backoff.
//! - W04 covers the paths whose contract is degradation-to-
//!   `skipped_records`: the analysis crate, the store's read/verify/decode
//!   side, and the detection call tree in core.
//! - W06 is W02's complement: seeded-RNG functions outside the output
//!   crates must still not key behavior off unordered iteration.

use crate::rules::Rule;

/// The overflow-proven scale paths (W03): universe generation, archive
/// offset accounting, retry backoff, plus the slice-at-a-time kernels (CRC
/// slice-by-8, percent decode) and the Aho–Corasick scan, whose
/// index/offset arithmetic runs over multi-GB scan corpora.
const W03_FILES: [&str; 6] = [
    "crates/web/src/universe.rs",
    "crates/store/src/writer.rs",
    "crates/crawler/src/retry.rs",
    "crates/hashes/src/crc.rs",
    "crates/core/src/scan.rs",
    "crates/encodings/src/percent.rs",
];

/// The degradation-contract files in core and store (W04); the whole
/// analysis crate is additionally in scope.
const W04_FILES: [&str; 9] = [
    "crates/core/src/detect.rs",
    "crates/core/src/scan.rs",
    "crates/core/src/tokens.rs",
    "crates/core/src/tracking.rs",
    "crates/store/src/reader.rs",
    "crates/store/src/format.rs",
    "crates/store/src/verify.rs",
    "crates/store/src/vbin.rs",
    "crates/store/src/fast.rs",
];

/// Is `rule` active for the file at workspace-relative `path`?
pub fn in_scope(rule: Rule, path: &str) -> bool {
    let output_crate = path.starts_with("crates/analysis/src/")
        || path.starts_with("crates/store/src/")
        || path.starts_with("crates/core/src/");
    match rule {
        Rule::W00 | Rule::W01 | Rule::W05 => true,
        Rule::W02 => output_crate,
        Rule::W03 => W03_FILES.contains(&path),
        Rule::W04 => path.starts_with("crates/analysis/src/") || W04_FILES.contains(&path),
        Rule::W06 => !output_crate,
    }
}
