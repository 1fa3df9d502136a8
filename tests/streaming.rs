//! The streaming pipeline's headline contract: replaying an archive batch
//! by batch through `Study::run_streaming` renders the exact same tables as
//! the materialized path — for any worker count and any fault profile — and
//! its peak residency is bounded by one batch, not by the universe size.

use pii_suite::analysis::Study;
use pii_suite::net::cache::CacheStrategy;
use pii_suite::net::fault::FaultProfile;
use pii_suite::web::UniverseSpec;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pii-streaming-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The tentpole gate: for every fault profile and worker counts across the
/// 1–8 range, `tables --stream --from study.store` is byte-identical to the
/// materialized replay of the same archive.
#[test]
fn streaming_replay_is_byte_identical_for_any_workers_and_faults() {
    for profile in [
        FaultProfile::None,
        FaultProfile::PaperMay2021,
        FaultProfile::Hostile,
    ] {
        let path = temp_path(&format!("identity-{profile}.store"));
        let mut writer_study = Study::with_faults(profile);
        writer_study.workers = 3;
        writer_study
            .crawl_to_archive(&path)
            .expect("write capture archive");
        let materialized = Study::from_archive(&path).run();
        for workers in [1, 2, 5, 8] {
            let mut streaming_study = Study::from_archive(&path);
            streaming_study.workers = workers;
            let streaming = streaming_study.run_streaming();
            assert_eq!(
                materialized.render_all(),
                streaming.render_all(),
                "streaming diverged from materialized under profile {profile} with {workers} workers"
            );
            assert_eq!(
                materialized.report.skipped_records,
                streaming.report.skipped_records
            );
            let stats = streaming.stream.expect("streaming run reports its stats");
            assert_eq!(stats.sites, materialized.funnel.total);
            assert!(
                streaming.dataset.crawls.is_empty(),
                "no materialized crawls"
            );
        }
    }
}

/// Live streaming folds each site as its crawl completes, restoring site
/// order through a reorder buffer; the rendered output must match a plain
/// live run under the same seed. The buffer only reorders when the pool
/// delivers out of order, so the cells cover one and four workers, every
/// fault profile, and a warm-cache revisit crawl.
#[test]
fn live_streaming_matches_the_materialized_live_run() {
    let mut cells = Vec::new();
    for workers in [1, 4] {
        for profile in [
            FaultProfile::None,
            FaultProfile::PaperMay2021,
            FaultProfile::Hostile,
        ] {
            cells.push((workers, profile, None, 1));
        }
    }
    cells.push((4, FaultProfile::None, Some(CacheStrategy::CacheFirst), 2));
    for (workers, profile, cache, repeat) in cells {
        let study = || {
            let mut study = Study::with_faults(profile);
            study.workers = workers;
            study.cache = cache;
            study.repeat = repeat;
            study
        };
        let live = study().run();
        let streamed = study().run_streaming();
        let cell =
            format!("profile {profile}, {workers} workers, cache {cache:?}, repeat {repeat}");
        assert_eq!(
            live.render_all(),
            streamed.render_all(),
            "live streaming diverged under {cell}"
        );
        assert_eq!(
            live.report.skipped_records, streamed.report.skipped_records,
            "{cell}"
        );
        assert!(streamed.dataset.crawls.is_empty(), "{cell}");
        assert!(streamed.stream.is_none(), "{cell}");
    }
}

/// The constant-memory claim: growing the universe 10x grows the archive
/// roughly 10x, but the streaming replay's peak resident segment bytes —
/// bounded by one `STREAM_BATCH` of segments — stays flat.
#[test]
fn peak_residency_is_flat_while_the_universe_scales() {
    let mut peaks = Vec::new();
    let mut archive_bytes = Vec::new();
    for factor in [1usize, 10] {
        let path = temp_path(&format!("scale-{factor}x.store"));
        let mut study = Study::paper();
        study.spec = UniverseSpec::default().scaled(factor);
        study.workers = 8;
        let (summary, _) = study
            .crawl_to_archive(&path)
            .expect("write capture archive");
        archive_bytes.push(summary.bytes_written);
        let mut replay = Study::from_archive(&path);
        replay.workers = 8;
        let r = replay.run_streaming();
        let stats = r.stream.expect("streaming run reports its stats");
        assert_eq!(
            stats.sites,
            UniverseSpec::default().scaled(factor).total_sites
        );
        peaks.push(stats.peak_resident_bytes);
    }
    assert!(
        archive_bytes[1] >= archive_bytes[0] * 5,
        "10x universe should produce a much larger archive ({} vs {} bytes)",
        archive_bytes[1],
        archive_bytes[0]
    );
    // Peak residency is one batch's worth of segments regardless of site
    // count; allow slack for per-site size variance, but nothing close to
    // the 10x the archive itself grew by.
    assert!(
        peaks[1] <= peaks[0] * 2,
        "streaming peak grew with universe size: {} bytes at 1x vs {} bytes at 10x",
        peaks[0],
        peaks[1]
    );
}
