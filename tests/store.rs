//! The capture archive's headline contract: under a fixed seed, replaying
//! `study.store` is byte-identical to the live pipeline — for any worker
//! count and any fault profile — and damage to the archive degrades the
//! replay instead of killing it.

use pii_suite::analysis::Study;
use pii_suite::crawler::{CrawlDataset, CrawlOutcome, SiteCrawl};
use pii_suite::hashes::{hex_digest, HashAlgorithm};
use pii_suite::net::cache::CacheStrategy;
use pii_suite::net::fault::FaultProfile;
use pii_suite::prelude::*;
use pii_suite::store::{format, ArchiveMeta, ArchiveReader, ArchiveWriter, StoreError};
use proptest::prelude::*;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pii-store-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn dataset_json(dataset: &CrawlDataset) -> String {
    serde_json::to_string(dataset).expect("dataset serializes")
}

/// The tentpole contract: `tables --from study.store` is byte-identical to
/// a live `tables` run under the same seed — for every fault profile, and
/// regardless of the worker counts used to write and to replay.
#[test]
fn replay_is_byte_identical_to_live_for_any_workers_and_faults() {
    for profile in [
        FaultProfile::None,
        FaultProfile::PaperMay2021,
        FaultProfile::Hostile,
    ] {
        let path = temp_path(&format!("identity-{profile}.store"));
        // Archive written by a 3-worker crawl (shards complete out of order).
        let mut writer_study = Study::with_faults(profile);
        writer_study.workers = 3;
        writer_study
            .crawl_to_archive(&path)
            .expect("write capture archive");
        // Live baseline from a single worker.
        let mut live_study = Study::with_faults(profile);
        live_study.workers = 1;
        let live = live_study.run();
        // Replay with yet another worker count.
        let mut replay_study = Study::from_archive(&path);
        replay_study.workers = 5;
        let replay = replay_study.run();
        assert_eq!(
            live.render_all(),
            replay.render_all(),
            "replay diverged from live under profile {profile}"
        );
        assert_eq!(dataset_json(&live.dataset), dataset_json(&replay.dataset));
        assert_eq!(live.report.skipped_records, replay.report.skipped_records);
    }
}

/// The archive's meta wins over the replaying study's own configuration:
/// a capture crawled under the paper's fault profile reports that profile's
/// degradation even when the replay asked for `none`.
#[test]
fn archive_meta_overrides_the_replaying_study() {
    let path = temp_path("meta-wins.store");
    Study::with_faults(FaultProfile::PaperMay2021)
        .crawl_to_archive(&path)
        .expect("write capture archive");
    let replay = Study::from_archive(&path).run(); // paper() defaults to faults=none
    assert_eq!(replay.degradation.profile, FaultProfile::PaperMay2021);
    assert!(replay.degradation.should_render());
}

/// `Study::universe` (what `stats` prints) is the universe the study would
/// measure — from the study's spec live, from the archive's recorded spec
/// under `--from` — without crawling or replaying it.
#[test]
fn study_universe_is_the_measured_universe() {
    let spec = UniverseSpec {
        seed: 11,
        ..UniverseSpec::default()
    };
    let live = Study {
        spec: spec.clone(),
        workers: 1,
        ..Study::paper()
    };
    let path = temp_path("universe-seed-11.store");
    let fingerprint = |u: &Universe| {
        (
            pii_suite::web::stats::compute(u).render(),
            serde_json::to_string(&u.sites).expect("sites serialize"),
        )
    };
    let expected = fingerprint(&live.universe());
    live.crawl_to_archive(&path).expect("write capture archive");
    let replay = Study::from_archive(&path); // paper() defaults to seed 7
    assert_eq!(fingerprint(&replay.universe()), expected);
    assert_eq!(fingerprint(&replay.run_streaming().universe), expected);
    assert_ne!(fingerprint(&Study::paper().universe()), expected);
}

/// `export` shares the archive writer: the `study.store` it drops next to
/// the CSV/HAR artifacts replays to the same dataset.
#[test]
fn exported_archive_replays_the_exported_dataset() {
    let r = Study::paper().run();
    let path = temp_path("export.store");
    let meta = ArchiveMeta {
        spec: r.universe.spec.clone(),
        browser: r.dataset.browser,
        faults: r.degradation.profile,
    };
    let summary = pii_suite::store::write_archive(&path, &meta, &r.dataset).expect("write archive");
    assert_eq!(summary.segments, r.dataset.crawls.len());
    assert!(
        summary.compression_ratio() > 2.0,
        "site records should still deflate, got {:.2}x",
        summary.compression_ratio()
    );
    let replay = ArchiveReader::open(&path)
        .expect("open archive")
        .read_dataset();
    assert!(replay.report.skipped.is_empty());
    assert_eq!(dataset_json(&replay.dataset), dataset_json(&r.dataset));
}

/// Replaying something that is not an archive fails cleanly (no panic, a
/// typed error naming the problem).
#[test]
fn foreign_files_are_rejected() {
    let path = temp_path("not-an-archive.store");
    std::fs::write(&path, b"seed,workers\n7,4\n").unwrap();
    assert!(matches!(
        ArchiveReader::open(&path),
        Err(StoreError::NotAnArchive)
    ));
    assert!(matches!(
        ArchiveReader::open(&temp_path("missing.store")),
        Err(StoreError::Io(_))
    ));
}

/// What every path refuses a v1 archive with.
const V1_REFUSAL: &str = "archive format v1 is no longer supported; re-run `crawl --out`";

/// A file at `name` that an archive writer of format v1 would have started:
/// the `PIISTOR1` magic, then bytes this build must never decode.
fn v1_archive(name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let mut bytes = toy_archive(&toy_crawls());
    bytes[..format::FILE_MAGIC.len()].copy_from_slice(b"PIISTOR1");
    let path = temp_path(name);
    std::fs::write(&path, &bytes).unwrap();
    (path, bytes)
}

fn is_v1_refusal<T>(result: Result<T, StoreError>) -> bool {
    match result {
        Err(e @ StoreError::UnsupportedVersion(1)) => e.to_string() == V1_REFUSAL,
        _ => false,
    }
}

/// Opening a v1 archive, from a file or from bytes, fails with the named
/// version error, never as foreign bytes and never by decoding it.
#[test]
fn v1_archives_are_refused_on_open() {
    let (path, bytes) = v1_archive("v1-open.store");
    assert!(is_v1_refusal(ArchiveReader::open(&path).map(|r| r.len())));
    assert!(is_v1_refusal(
        ArchiveReader::from_bytes(bytes).map(|r| r.len())
    ));
}

/// `store verify` and `store repair` refuse a v1 archive by name; repair
/// writes nothing and leaves the archive as it was.
#[test]
fn v1_archives_are_refused_by_store_verify_and_repair() {
    let (path, bytes) = v1_archive("v1-verify.store");
    assert!(is_v1_refusal(
        pii_suite::store::verify(&path).map(|r| r.bytes)
    ));
    let out = temp_path("v1-repaired.store");
    assert!(is_v1_refusal(pii_suite::store::repair(&path, &out)));
    assert!(!out.exists());
    assert!(is_v1_refusal(pii_suite::store::repair(&path, &path)));
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}

/// `crawl --out X --resume` over a v1 archive fails with the named version
/// error and leaves X byte-unchanged: the resume scan neither truncates it
/// nor restarts it.
#[test]
fn v1_archives_are_refused_by_a_resumed_crawl() {
    let (path, bytes) = v1_archive("v1-resume.store");
    let err = Study::paper()
        .crawl_to_archive_with(&path, true, None)
        .map(|(summary, _)| summary)
        .expect_err("a v1 archive must not be resumed");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().ends_with(V1_REFUSAL), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}

/// Degenerate inputs the file backend must reject (or recover) cleanly:
/// the empty file, a prefix shorter than the magic, exactly the magic and
/// nothing else, and a file cut exactly at the trailer boundary.
#[test]
fn degenerate_archives_fail_or_recover_cleanly() {
    // Zero-length: no magic, not an archive.
    let empty = temp_path("degenerate-empty.store");
    std::fs::write(&empty, b"").unwrap();
    assert!(matches!(
        ArchiveReader::open(&empty),
        Err(StoreError::NotAnArchive)
    ));

    // Shorter than the 8-byte magic, even sharing its prefix.
    let short = temp_path("degenerate-short.store");
    std::fs::write(&short, &format::FILE_MAGIC[..4]).unwrap();
    assert!(matches!(
        ArchiveReader::open(&short),
        Err(StoreError::NotAnArchive)
    ));

    // Exactly the magic: a valid prefix with no meta segment to replay
    // against.
    let header_only = temp_path("degenerate-header-only.store");
    std::fs::write(&header_only, format::FILE_MAGIC).unwrap();
    assert!(matches!(
        ArchiveReader::open(&header_only),
        Err(StoreError::MetaUnreadable(_))
    ));

    // Cut exactly at the trailer boundary: the footer's last byte is the
    // final byte of the file. The trailer is gone, so the footer cannot be
    // located — but the tail scan must still recover every segment.
    let crawls = toy_crawls();
    let bytes = toy_archive(&crawls);
    let cut = bytes.len() - format::TRAILER_LEN;
    let reader =
        ArchiveReader::from_bytes(bytes[..cut].to_vec()).expect("trailer-less archive opens");
    assert!(!reader.used_footer(), "no trailer means no footer lookup");
    let replay = reader.read_dataset();
    assert!(replay.report.skipped.is_empty());
    assert_eq!(replay.dataset.crawls.len(), crawls.len());
    assert_eq!(
        serde_json::to_string(&replay.dataset.crawls).unwrap(),
        serde_json::to_string(&crawls).unwrap()
    );
}

fn toy_crawls() -> Vec<SiteCrawl> {
    (0..12)
        .map(|i| SiteCrawl {
            domain: format!("site-{i}.example"),
            outcome: match i % 4 {
                0 => CrawlOutcome::Completed {
                    email_confirmed: i % 2 == 0,
                    bot_detection_passed: false,
                },
                1 => CrawlOutcome::Unreachable,
                2 => CrawlOutcome::SignupBlocked(format!("policy {i}")),
                _ => CrawlOutcome::Quarantined("worker panic".repeat(i)),
            },
            records: Vec::new(),
            stored_cookies: Vec::new(),
            resilience: None,
        })
        .collect()
}

fn toy_archive(crawls: &[SiteCrawl]) -> Vec<u8> {
    let meta = ArchiveMeta {
        spec: UniverseSpec::default(),
        browser: BrowserKind::Firefox88Vanilla,
        faults: FaultProfile::None,
    };
    let mut writer = ArchiveWriter::new(Vec::new(), &meta).expect("writer");
    for (i, crawl) in crawls.iter().enumerate() {
        writer.append_site(i, crawl).expect("append");
    }
    writer.finish_with_sink().expect("finish").1
}

/// Byte range holding the site segments (after the meta segment, before the
/// footer) — the region where single-bit damage must cost at most one site.
fn segment_region(bytes: &[u8]) -> std::ops::Range<usize> {
    let meta_header =
        format::read_segment_header(bytes, format::FILE_MAGIC.len()).expect("meta header");
    let start = format::FILE_MAGIC.len() + meta_header.segment_len();
    let (footer_offset, _) = format::read_trailer(bytes).expect("trailer");
    start..footer_offset as usize
}

/// One pinned capture: `pii-study --seed 7 --workers 1 <flags> crawl --out X`.
struct PinnedCapture {
    flags: &'static str,
    faults: FaultProfile,
    cache: Option<CacheStrategy>,
    repeat: u32,
    watchdog_ms: Option<u64>,
    /// Sites the watchdog quarantines.
    watchdogged: usize,
    sha256: &'static str,
}

/// SHA-256s of seed-7 1x archives, the same at any worker count. Every
/// other test here compares archives with each other or with the live
/// pipeline; these notice a change to the bytes a capture produces
/// (compressor output, the site record codec, framing, and — through the
/// measured cells — the crawl's retry, revisit and watchdog paths). Re-pin
/// only on a deliberate format or capture change; format v2 re-pinned all
/// three, after replays of v1 and v2 archives printed the same bytes.
const PINNED_CAPTURES: [PinnedCapture; 3] = [
    PinnedCapture {
        flags: "",
        faults: FaultProfile::None,
        cache: None,
        repeat: 1,
        watchdog_ms: None,
        watchdogged: 0,
        sha256: "1356cfef22548645617bf7238426cd0a14434db14726eba2e37a0a3205e33177",
    },
    PinnedCapture {
        flags: "--faults paper-may-2021 --cache cache-first --repeat 2",
        faults: FaultProfile::PaperMay2021,
        cache: Some(CacheStrategy::CacheFirst),
        repeat: 2,
        watchdog_ms: None,
        watchdogged: 0,
        sha256: "fdcc3aa43f667c1ac512bc869bdb94437621702e40d43a204a96efa337e9ca98",
    },
    PinnedCapture {
        flags: "--faults hostile --watchdog-ms 4000",
        faults: FaultProfile::Hostile,
        cache: None,
        repeat: 1,
        watchdog_ms: Some(4000),
        watchdogged: 42,
        sha256: "64101f2a452cd53cbc7ba2f52c81a22e6715ea32b5e694d41d027bfe8a7911eb",
    },
];

/// Each pinned capture, written in memory at one worker and at four: the
/// crawl pool delivers in site order, so the bytes do not depend on the
/// worker count.
#[test]
fn seed_7_archive_bytes_are_pinned() {
    let universe = Universe::generate_with(UniverseSpec {
        seed: 7,
        ..UniverseSpec::default()
    });
    for pinned in &PINNED_CAPTURES {
        for workers in [1, 4] {
            let meta = ArchiveMeta {
                spec: universe.spec.clone(),
                browser: BrowserKind::Firefox88Vanilla,
                faults: pinned.faults,
            };
            let mut crawler = Crawler::new(&universe);
            crawler.workers = workers;
            crawler.faults = universe.fault_plan(pinned.faults);
            crawler.cache = pinned.cache;
            crawler.repeat = pinned.repeat;
            crawler.watchdog_ms = pinned.watchdog_ms;
            let writer =
                std::sync::Mutex::new(ArchiveWriter::new(Vec::new(), &meta).expect("writer"));
            let watchdogged = std::sync::atomic::AtomicUsize::new(0);
            crawler.run_streaming(meta.browser, &|index, crawl| {
                if matches!(&crawl.outcome, CrawlOutcome::Quarantined(r) if r.starts_with("watchdog:"))
                {
                    watchdogged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                writer
                    .lock()
                    .expect("writer lock")
                    .append_site(index, crawl)
                    .expect("append");
            });
            assert_eq!(
                watchdogged.into_inner(),
                pinned.watchdogged,
                "watchdog trips with flags {:?} at {workers} workers",
                pinned.flags
            );
            let writer = writer.into_inner().expect("writer lock");
            let bytes = writer.finish_with_sink().expect("finish").1;
            assert_eq!(
                hex_digest(HashAlgorithm::Sha256, &bytes),
                pinned.sha256,
                "archive bytes changed with flags {:?} at {workers} workers ({} bytes)",
                pinned.flags,
                bytes.len()
            );
        }
    }
}

proptest! {
    /// Round-trip: any dataset written through the archive comes back equal.
    #[test]
    fn datasets_round_trip_through_the_archive(
        reasons in proptest::collection::vec("[ -~]{0,200}", 1..20),
    ) {
        let crawls: Vec<SiteCrawl> = reasons
            .iter()
            .enumerate()
            .map(|(i, reason)| SiteCrawl {
                domain: format!("rt-{i}.example"),
                outcome: if i % 2 == 0 {
                    CrawlOutcome::Quarantined(reason.clone())
                } else {
                    CrawlOutcome::SignupBlocked(reason.clone())
                },
                records: Vec::new(),
                stored_cookies: Vec::new(),
                resilience: None,
            })
            .collect();
        let dataset = CrawlDataset {
            browser: BrowserKind::Chrome93,
            crawls,
        };
        let meta = ArchiveMeta {
            spec: UniverseSpec::default(),
            browser: dataset.browser,
            faults: FaultProfile::None,
        };
        let mut writer = ArchiveWriter::new(Vec::new(), &meta).expect("writer");
        for (i, crawl) in dataset.crawls.iter().enumerate() {
            writer.append_site(i, crawl).expect("append");
        }
        let bytes = writer.finish_with_sink().expect("finish").1;
        let replay = ArchiveReader::from_bytes(bytes).expect("open").read_dataset();
        prop_assert!(replay.report.skipped.is_empty());
        prop_assert_eq!(dataset_json(&replay.dataset), dataset_json(&dataset));
    }

    /// Any single bit flip in the segment region is caught by a CRC: the
    /// damaged segment is skipped (with a quarantined placeholder), every
    /// other site decodes intact, and nothing panics.
    #[test]
    fn single_bit_flips_cost_at_most_one_site(bit in 0u32..8, pos in 0u32..10_000) {
        let crawls = toy_crawls();
        let bytes = toy_archive(&crawls);
        let region = segment_region(&bytes);
        let target = region.start + (pos as usize * (region.len() - 1)) / 9_999;
        let mut mangled = bytes.clone();
        mangled[target] ^= 1u8 << bit;
        let reader = ArchiveReader::from_bytes(mangled).expect("open survives body damage");
        let replay = reader.read_dataset();
        prop_assert!(replay.report.skipped.len() <= 1, "one flip, one segment");
        prop_assert_eq!(
            replay.report.segments_verified,
            crawls.len() - replay.report.skipped.len()
        );
        // Every site keeps a row; undamaged ones decode identically.
        prop_assert_eq!(replay.dataset.crawls.len(), crawls.len());
        let damaged: Vec<&str> = replay
            .report
            .skipped
            .iter()
            .filter_map(|s| s.label.as_deref())
            .collect();
        for original in &crawls {
            let got = replay.dataset.site(&original.domain).expect("row kept");
            if damaged.contains(&original.domain.as_str()) {
                prop_assert!(matches!(got.outcome, CrawlOutcome::Quarantined(_)));
            } else {
                prop_assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(original).unwrap()
                );
            }
        }
    }

    /// Truncation anywhere keeps every complete segment readable.
    #[test]
    fn truncation_recovers_every_complete_segment(pos in 0u32..10_000) {
        let crawls = toy_crawls();
        let bytes = toy_archive(&crawls);
        let region = segment_region(&bytes);
        // Cut anywhere from just-after-meta through the very end.
        let cut = region.start + (pos as usize * (bytes.len() - region.start)) / 10_000;
        let reader = match ArchiveReader::from_bytes(bytes[..cut].to_vec()) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::Fail(format!("cut at {cut}: {e}"))),
        };
        let replay = reader.read_dataset();
        prop_assert!(replay.report.segments_verified <= crawls.len());
        // Whatever survived is bit-exact; nothing is invented.
        for got in replay
            .dataset
            .crawls
            .iter()
            .filter(|c| !matches!(c.outcome, CrawlOutcome::Quarantined(_)))
        {
            let original = crawls
                .iter()
                .find(|c| c.domain == got.domain)
                .expect("recovered site exists in the original");
            prop_assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(original).unwrap()
            );
        }
    }
}
