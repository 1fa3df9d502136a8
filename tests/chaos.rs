//! Deterministic kill-point chaos harness for the crash-consistent archive.
//!
//! Every test follows the same arc: crawl with a seeded [`FailPoint`] that
//! kills the writer mid-stream (leaving exactly the bytes a process death
//! would leave), then `--resume` against the torn file and prove the
//! finished archive is indistinguishable from an uninterrupted run — same
//! dataset, same report, and (single-worker) the same bytes. The matrix
//! covers every structural fail point, all three fault profiles, worker
//! counts {1, 2, 5, 8}, and — via proptest — truncation at arbitrary byte
//! positions.

use pii_suite::analysis::Study;
use pii_suite::crawler::CrawlDataset;
use pii_suite::net::fault::FaultProfile;
use pii_suite::store::{self, ArchiveReader, FailPoint};
use pii_suite::web::UniverseSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pii-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Same scaled-down universe the telemetry tests use: the full funnel shape
/// at ~7x fewer sites, so the kill × profile × workers matrix stays fast.
fn small_spec() -> UniverseSpec {
    UniverseSpec {
        total_sites: 60,
        unreachable: 3,
        no_auth_flow: 3,
        blocked_phone: 5,
        blocked_id_docs: 2,
        blocked_geo: 1,
        email_confirmation: 10,
        bot_detection: 6,
        senders: 20,
        emails: (200, 20),
        ..UniverseSpec::default()
    }
}

fn small_study(workers: usize, faults: FaultProfile) -> Study {
    let mut study = Study::with_workers(workers);
    study.spec = small_spec();
    study.faults = faults;
    study
}

fn dataset_json(dataset: &CrawlDataset) -> String {
    serde_json::to_string(dataset).expect("dataset serializes")
}

/// One kill point per structural boundary of the format: inside the magic's
/// successor (the meta header), inside a payload, exactly between a
/// segment's CRC landing and the next append, before/inside finalization.
const KILL_POINTS: [FailPoint; 7] = [
    FailPoint::AfterHeader,
    FailPoint::MidHeader(4),
    FailPoint::MidPayload(11),
    FailPoint::AfterSegment(25),
    FailPoint::BeforeFinalize,
    FailPoint::MidFooter,
    FailPoint::MidTrailer,
];

/// Uninterrupted single-worker baseline per profile, computed once per test
/// binary: the byte stream a resume must converge back to.
fn baseline(profile: FaultProfile) -> &'static (Vec<u8>, String) {
    static BASELINES: OnceLock<[(Vec<u8>, String); 3]> = OnceLock::new();
    let all = BASELINES.get_or_init(|| {
        [
            FaultProfile::None,
            FaultProfile::PaperMay2021,
            FaultProfile::Hostile,
        ]
        .map(|p| {
            let path = temp_path(&format!("baseline-{p}.store"));
            small_study(1, p)
                .crawl_to_archive(&path)
                .expect("baseline crawl");
            let bytes = std::fs::read(&path).expect("baseline bytes");
            let json = dataset_json(
                &ArchiveReader::open(&path)
                    .expect("open baseline")
                    .read_dataset()
                    .dataset,
            );
            (bytes, json)
        })
    });
    match profile {
        FaultProfile::None => &all[0],
        FaultProfile::PaperMay2021 => &all[1],
        FaultProfile::Hostile => &all[2],
    }
}

/// The tentpole matrix: every kill point × every fault profile × worker
/// counts {1, 2, 5, 8}. The torn file never verifies clean; the resumed
/// file always does, replays to the baseline dataset, and — single-worker,
/// where append order is deterministic — is byte-identical to the
/// uninterrupted archive.
#[test]
fn every_kill_point_resumes_to_the_uninterrupted_dataset() {
    for profile in [
        FaultProfile::None,
        FaultProfile::PaperMay2021,
        FaultProfile::Hostile,
    ] {
        let (baseline_bytes, baseline_json) = baseline(profile);
        for workers in [1usize, 2, 5, 8] {
            for (i, kill) in KILL_POINTS.into_iter().enumerate() {
                let ctx = format!("profile {profile}, {workers} workers, kill {kill}");
                let path = temp_path(&format!("matrix-{profile}-w{workers}-k{i}.store"));
                let _ = std::fs::remove_file(&path);
                let err = small_study(workers, profile)
                    .crawl_to_archive_with(&path, false, Some(kill))
                    .expect_err("the kill point must abort the crawl");
                assert!(FailPoint::is_kill(&err), "{ctx}: unexpected error {err}");
                let torn_clean = store::verify(&path).map(|r| r.is_clean()).unwrap_or(false);
                assert!(!torn_clean, "{ctx}: a killed writer left a clean archive");
                let (summary, crawl) = small_study(workers, profile)
                    .crawl_to_archive_with(&path, true, None)
                    .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
                assert_eq!(crawl.funnel.total, 60, "{ctx}: funnel lost sites");
                assert_eq!(summary.segments, 60, "{ctx}: index lost sites");
                let report = store::verify(&path).expect("verify resumed archive");
                assert!(report.is_clean(), "{ctx}: resumed archive not clean");
                let replay = ArchiveReader::open(&path)
                    .expect("open resumed archive")
                    .read_dataset();
                assert!(replay.report.skipped.is_empty(), "{ctx}: replay skipped");
                assert_eq!(
                    &dataset_json(&replay.dataset),
                    baseline_json,
                    "{ctx}: resumed dataset diverged from the uninterrupted run"
                );
                if workers == 1 {
                    assert_eq!(
                        &std::fs::read(&path).expect("resumed bytes"),
                        baseline_bytes,
                        "{ctx}: single-worker resume must be byte-identical"
                    );
                }
            }
        }
    }
}

/// End-to-end report identity: a crashed-and-resumed multi-worker crawl
/// replays through the full study to the byte-identical rendered report of
/// an uninterrupted single-worker live run.
#[test]
fn resumed_archives_replay_to_byte_identical_reports() {
    for (profile, kill) in [
        (FaultProfile::None, FailPoint::AfterSegment(13)),
        (FaultProfile::PaperMay2021, FailPoint::MidPayload(7)),
        (FaultProfile::Hostile, FailPoint::BeforeFinalize),
    ] {
        let live = small_study(1, profile).run();
        let path = temp_path(&format!("report-{profile}.store"));
        let _ = std::fs::remove_file(&path);
        small_study(2, profile)
            .crawl_to_archive_with(&path, false, Some(kill))
            .expect_err("the kill point must abort the crawl");
        small_study(2, profile)
            .crawl_to_archive_with(&path, true, None)
            .expect("resume");
        let replay = Study::from_archive(&path).run();
        assert_eq!(
            live.render_all(),
            replay.render_all(),
            "replay of the resumed archive diverged under profile {profile}"
        );
        assert_eq!(live.report.skipped_records, replay.report.skipped_records);
    }
}

/// Crashing the *resume* as well still converges: kill the first run
/// mid-payload, kill the first resume at a segment boundary, and let the
/// third attempt finish — the result is byte-identical to never crashing.
#[test]
fn repeated_crashes_still_converge_to_the_baseline_bytes() {
    let profile = FaultProfile::PaperMay2021;
    let (baseline_bytes, _) = baseline(profile);
    let path = temp_path("double-crash.store");
    let _ = std::fs::remove_file(&path);
    small_study(1, profile)
        .crawl_to_archive_with(&path, false, Some(FailPoint::MidPayload(9)))
        .expect_err("first run dies mid-payload");
    small_study(1, profile)
        .crawl_to_archive_with(&path, true, Some(FailPoint::AfterSegment(30)))
        .expect_err("the resume dies too");
    small_study(1, profile)
        .crawl_to_archive_with(&path, true, None)
        .expect("third attempt finishes");
    assert_eq!(&std::fs::read(&path).expect("final bytes"), baseline_bytes);
}

/// `verify` must flag every corrupted fixture `repair` can fix: bit flips
/// in the body and torn tails of assorted depths all verify dirty, repair,
/// and then verify clean with nothing skipped on replay.
#[test]
fn verify_flags_every_corruption_and_repair_restores_cleanliness() {
    let (baseline_bytes, _) = baseline(FaultProfile::None);
    let len = baseline_bytes.len();
    let mut fixtures: Vec<(String, Vec<u8>, bool)> = Vec::new();
    // Bit flips mid-body: one damaged site each, every row survives repair.
    for at in [len / 3, len / 2, 2 * len / 3] {
        let mut bytes = baseline_bytes.clone();
        bytes[at] ^= 0x40;
        fixtures.push((format!("flip-{at}"), bytes, true));
    }
    // Torn tails: trailer clipped (no site lost) and a mid-body cut (tail
    // sites gone entirely — repair keeps what is recoverable).
    fixtures.push((
        "torn-trailer".into(),
        baseline_bytes[..len - 1].to_vec(),
        true,
    ));
    fixtures.push((
        "torn-body".into(),
        baseline_bytes[..2 * len / 3].to_vec(),
        false,
    ));
    for (name, bytes, all_rows_survive) in fixtures {
        let path = temp_path(&format!("fixture-{name}.store"));
        std::fs::write(&path, &bytes).expect("write fixture");
        let report = store::verify(&path).expect("verify opens the fixture");
        assert!(!report.is_clean(), "fixture {name} must need repair");
        let fixed = temp_path(&format!("fixture-{name}-fixed.store"));
        let summary = store::repair(&path, &fixed).expect("repair");
        let fixed_report = store::verify(&fixed).expect("verify the repaired file");
        assert!(
            fixed_report.is_clean(),
            "fixture {name} must verify clean after repair: {}",
            fixed_report.render()
        );
        let replay = ArchiveReader::open(&fixed)
            .expect("open repaired")
            .read_dataset();
        assert!(replay.report.skipped.is_empty(), "fixture {name}");
        if all_rows_survive {
            assert_eq!(
                replay.dataset.crawls.len(),
                60,
                "fixture {name}: repair must keep a row for every site \
                 (damaged ones as explicit quarantines)"
            );
            assert_eq!(
                summary.segments_recovered + summary.segments_quarantined,
                60,
                "fixture {name}"
            );
        } else {
            assert!(replay.dataset.crawls.len() <= 60, "fixture {name}");
            assert!(summary.segments_recovered > 0, "fixture {name}");
        }
    }
}

proptest! {
    /// Truncation at an arbitrary byte: the kill leaves exactly the
    /// uninterrupted stream's first `cut` bytes (single worker), and one
    /// resume restores the full baseline byte-for-byte.
    #[test]
    fn truncation_at_any_byte_resumes_to_identical_bytes(frac in 0u32..10_000) {
        let (baseline_bytes, _) = baseline(FaultProfile::PaperMay2021);
        let cut = (frac as u64 * (baseline_bytes.len() as u64 - 1)) / 9_999;
        let path = temp_path(&format!("prop-cut-{cut}.store"));
        let _ = std::fs::remove_file(&path);
        let err = small_study(1, FaultProfile::PaperMay2021)
            .crawl_to_archive_with(&path, false, Some(FailPoint::AtByte(cut)))
            .expect_err("the byte limit must abort the crawl");
        prop_assert!(FailPoint::is_kill(&err), "unexpected error: {err}");
        let torn = std::fs::read(&path).expect("torn bytes");
        prop_assert_eq!(
            &torn[..],
            &baseline_bytes[..cut as usize],
            "the torn file must be exactly the stream's first {} bytes",
            cut
        );
        small_study(1, FaultProfile::PaperMay2021)
            .crawl_to_archive_with(&path, true, None)
            .map_err(|e| TestCaseError::Fail(format!("resume after cut {cut}: {e}")))?;
        prop_assert_eq!(&std::fs::read(&path).expect("resumed bytes"), baseline_bytes);
    }
}

/// `repair A --out A` must not read the file it is rewriting: a clean and
/// a bit-flipped fixture, each repaired onto itself, come out with the
/// same bytes and row counts as a repair to a separate path, and no
/// temporary file is left beside them. The read-only copy is one the
/// writer cannot retire, so there only the repair itself keeps its input.
#[test]
fn repairing_an_archive_onto_itself_matches_a_separate_repair() {
    let (baseline_bytes, _) = baseline(FaultProfile::None);
    let mut flipped = baseline_bytes.clone();
    flipped[baseline_bytes.len() / 2] ^= 0x40;
    for (name, bytes) in [("clean", baseline_bytes.clone()), ("flip", flipped)] {
        let source = temp_path(&format!("self-{name}.store"));
        let separate = temp_path(&format!("self-{name}-separate.store"));
        std::fs::write(&source, &bytes).expect("write fixture");
        let expected = store::repair(&source, &separate).expect("repair to a separate path");
        let expected_bytes = std::fs::read(&separate).expect("separate bytes");
        for read_only in [false, true] {
            let ctx = format!("fixture {name}, read-only {read_only}");
            let in_place = temp_path(&format!("self-{name}-{read_only}.store"));
            std::fs::write(&in_place, &bytes).expect("write fixture");
            let mut permissions = std::fs::metadata(&in_place).expect("stat").permissions();
            permissions.set_readonly(read_only);
            std::fs::set_permissions(&in_place, permissions).expect("chmod");
            let summary = store::repair(&in_place, &in_place).expect("repair onto itself");
            assert_eq!(summary, expected, "{ctx}");
            assert_eq!(
                summary.segments_recovered + summary.segments_quarantined,
                60,
                "{ctx}: every site keeps its row"
            );
            assert_eq!(
                std::fs::read(&in_place).expect("repaired bytes"),
                expected_bytes,
                "{ctx}"
            );
            assert!(
                store::verify(&in_place).expect("verify").is_clean(),
                "{ctx}"
            );
            assert!(!in_place.with_extension("repair-tmp").exists(), "{ctx}");
        }
    }
}
