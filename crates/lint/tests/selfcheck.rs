//! The linter's strongest regression test: the live workspace must lint
//! clean. Any new wall-clock read, unordered escape, bare scale-path
//! arithmetic, detection-path panic, unjustified `unsafe`, or malformed
//! suppression anywhere in first-party source fails this test — the same
//! gate `make lint-invariants` enforces in CI.

#![forbid(unsafe_code)]

use std::path::Path;

#[test]
fn live_workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = pii_lint::run_workspace(&root);
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; fix the finding or add a reasoned \
         `lint:allow`:\n{}",
        pii_lint::render_human(&diags)
    );
}

#[test]
fn workspace_scan_finds_the_whole_first_party_tree() {
    // Guard against the scan silently narrowing: the live run must cover
    // at least the 13 workspace crates plus the root bin/lib sources.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("src").is_dir())
        .count();
    assert!(crates >= 13, "expected >= 13 crates, scan saw {crates}");
}
