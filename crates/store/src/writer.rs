//! The streaming [`ArchiveWriter`]: the crawler pool appends site segments
//! as their shards complete; `finish` seals the archive with a canonical
//! footer index and trailer.
//!
//! The writer is the crash-consistency boundary of the whole pipeline. Its
//! commit discipline is: a segment is committed the instant its last byte
//! (the payload, whose CRC already sits in the header) reaches the file;
//! nothing before finalize refers to bytes that do not yet exist, and the
//! footer/trailer are only written — in one tail — at finalize. A process
//! death at *any* byte therefore leaves a prefix of committed segments plus
//! at most one torn tail, which [`ArchiveWriter::open_append`] detects,
//! truncates, and appends past. The [`crate::failpoint`] hooks threaded
//! through the write path exist to prove exactly that: they tear the file
//! at a chosen byte and nothing else.

use crate::failpoint::{FailPoint, FailState};
use crate::format::{self, IndexEntry, SegmentKind};
use crate::reader;
use parking_lot::Mutex;
use pii_browser::profiles::BrowserKind;
use pii_crawler::{CrawlDataset, CrawlOutcome, SiteCrawl};
use pii_net::fault::FaultProfile;
use pii_web::UniverseSpec;
use serde::{Deserialize, Serialize};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Everything replay needs to reconstruct the run that produced a capture:
/// the universe is regenerated from `spec` (it is a pure function of the
/// seed), only the expensive crawl itself is read back from disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchiveMeta {
    pub spec: UniverseSpec,
    pub browser: BrowserKind,
    /// Fault profile the capture ran under — replay must report the same
    /// degradation section a live run would.
    pub faults: FaultProfile,
}

/// Append-only accounting for one finished archive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Site segments written (the meta segment is not counted).
    pub segments: usize,
    /// Total file size, header through trailer.
    pub bytes_written: u64,
    /// Uncompressed payload bytes across all segments.
    pub raw_bytes: u64,
    /// Compressed payload bytes across all segments.
    pub compressed_bytes: u64,
}

impl StoreSummary {
    /// Uncompressed-to-compressed payload ratio (1.0 = no gain).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// One complete site segment found (and kept) when reopening a partial
/// archive for append.
#[derive(Debug, Clone)]
pub struct KeptSegment {
    /// Canonical universe position of the site.
    pub site_index: u32,
    /// The kept crawl's outcome — enough for the resume planner to decide
    /// whether the site is done (fold its outcome into the funnel) or needs
    /// a recrawl (`Quarantined`), without decoding payloads twice.
    pub outcome: CrawlOutcome,
}

/// What [`ArchiveWriter::open_append`] found on disk before it started
/// appending.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Committed site segments kept, deduplicated to the newest segment per
    /// site index, in canonical order.
    pub kept: Vec<KeptSegment>,
    /// Bytes cut off the end of the file: a torn tail segment, a stale
    /// footer/trailer, or (when the meta segment itself was torn) the whole
    /// previous file.
    pub truncated_bytes: u64,
    /// True when the archive had been finalized (or had a torn footer):
    /// its footer/trailer were dropped and will be rewritten at finish.
    pub dropped_finalization: bool,
}

/// Streaming archive writer. Segments may arrive in any order (worker
/// completion order); the footer index is sorted by site index at `finish`,
/// so everything derived from the archive is independent of scheduling.
pub struct ArchiveWriter<W: Write> {
    out: W,
    offset: u64,
    entries: Vec<IndexEntry>,
    summary: StoreSummary,
    buf: Vec<u8>,
    /// Armed fault injection (chaos tests / `--kill`); `None` in production.
    fail: Option<FailState>,
}

impl ArchiveWriter<std::io::BufWriter<std::fs::File>> {
    /// Create `path` (truncating any previous archive) and write the file
    /// header plus the meta segment.
    pub fn create(
        path: &Path,
        meta: &ArchiveMeta,
    ) -> std::io::Result<ArchiveWriter<std::io::BufWriter<std::fs::File>>> {
        ArchiveWriter::create_with_failpoint(path, meta, None)
    }

    /// [`ArchiveWriter::create`] with an armed [`FailPoint`]: the writer
    /// will deterministically die at that point, leaving the torn prefix
    /// on disk (flushed), and return [`FailPoint::killed`] errors from then
    /// on.
    pub fn create_with_failpoint(
        path: &Path,
        meta: &ArchiveMeta,
        fail: Option<FailPoint>,
    ) -> std::io::Result<ArchiveWriter<std::io::BufWriter<std::fs::File>>> {
        let _span = pii_telemetry::span("store.open");
        let file = std::fs::File::create(path)?;
        ArchiveWriter::new_with_failpoint(std::io::BufWriter::new(file), meta, fail)
    }

    /// Reopen a partial (or finalized) archive at `path` and continue
    /// appending where the last committed segment ends.
    ///
    /// The tail scan verifies each segment end to end — header CRC, payload
    /// CRC, and a full decode — and stops at the first byte that fails any
    /// of them; everything from there on (a torn segment, a stale footer,
    /// trailing garbage) is truncated away. A missing file, an empty file,
    /// or a torn *meta* segment restarts the archive from scratch; a file
    /// that is not a `pii-store` archive at all, or whose meta describes a
    /// different run than `meta`, is refused with an error rather than
    /// silently overwritten.
    pub fn open_append(
        path: &Path,
        meta: &ArchiveMeta,
    ) -> std::io::Result<(
        ArchiveWriter<std::io::BufWriter<std::fs::File>>,
        ResumeState,
    )> {
        ArchiveWriter::open_append_with_failpoint(path, meta, None)
    }

    /// [`ArchiveWriter::open_append`] with an armed [`FailPoint`] for the
    /// *resumed* writer — chaos tests kill a run, resume it, and kill it
    /// again. Segment-indexed points count segments appended by this
    /// writer, not segments already in the file.
    pub fn open_append_with_failpoint(
        path: &Path,
        meta: &ArchiveMeta,
        fail: Option<FailPoint>,
    ) -> std::io::Result<(
        ArchiveWriter<std::io::BufWriter<std::fs::File>>,
        ResumeState,
    )> {
        let _span = pii_telemetry::span("store.open_append");
        let existing_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let scan = if existing_len == 0 {
            TailScan::Restart
        } else {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            scan_tail(
                &reader::Source::File {
                    file: Mutex::new(file),
                    len,
                },
                meta,
            )
        };
        match scan {
            TailScan::NotAnArchive => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a pii-store archive", path.display()),
            )),
            TailScan::MetaMismatch => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: refusing to resume: archive meta describes a different run",
                    path.display()
                ),
            )),
            TailScan::Restart => {
                // Nothing recoverable (no file / no committed meta): start
                // the archive over.
                let writer = ArchiveWriter::create_with_failpoint(path, meta, fail)?;
                pii_telemetry::counter("store.resume.truncated_bytes", existing_len);
                pii_telemetry::counter("store.resume.segments_kept", 0);
                Ok((
                    writer,
                    ResumeState {
                        kept: Vec::new(),
                        truncated_bytes: existing_len,
                        dropped_finalization: false,
                    },
                ))
            }
            TailScan::Resume {
                keep,
                entries,
                kept,
                raw_bytes,
                compressed_bytes,
                dropped_finalization,
            } => {
                let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(keep)?;
                file.seek(SeekFrom::Start(keep))?;
                let truncated_bytes = existing_len.saturating_sub(keep);
                pii_telemetry::counter("store.resume.truncated_bytes", truncated_bytes);
                pii_telemetry::counter("store.resume.segments_kept", kept.len() as u64);
                let summary = StoreSummary {
                    segments: entries.len(),
                    bytes_written: 0,
                    raw_bytes,
                    compressed_bytes,
                };
                Ok((
                    ArchiveWriter {
                        out: std::io::BufWriter::new(file),
                        offset: keep,
                        entries,
                        summary,
                        buf: Vec::new(),
                        fail: fail.map(FailState::new),
                    },
                    ResumeState {
                        kept,
                        truncated_bytes,
                        dropped_finalization,
                    },
                ))
            }
        }
    }
}

impl<W: Write> ArchiveWriter<W> {
    /// Wrap any sink (tests use `Vec<u8>`); writes header + meta segment.
    pub fn new(out: W, meta: &ArchiveMeta) -> std::io::Result<ArchiveWriter<W>> {
        ArchiveWriter::new_with_failpoint(out, meta, None)
    }

    /// [`ArchiveWriter::new`] with an armed [`FailPoint`].
    pub fn new_with_failpoint(
        out: W,
        meta: &ArchiveMeta,
        fail: Option<FailPoint>,
    ) -> std::io::Result<ArchiveWriter<W>> {
        let mut writer = ArchiveWriter {
            out,
            offset: 0,
            entries: Vec::new(),
            summary: StoreSummary::default(),
            buf: Vec::new(),
            fail: fail.map(FailState::new),
        };
        writer.write_all(&format::FILE_MAGIC[..])?;
        if matches!(writer.fail, Some(f) if f.point == FailPoint::AfterHeader) {
            return Err(writer.kill(&[]));
        }
        writer.append_segment(SegmentKind::Meta, 0, 0, "meta", format::encode_record(meta))?;
        Ok(writer)
    }

    /// Persist `partial`, flush so the torn prefix really is on disk, mark
    /// the writer dead, and hand back the kill error every later call will
    /// repeat. Only meaningful with an armed fail point.
    fn kill(&mut self, partial: &[u8]) -> std::io::Error {
        let point = self.fail.expect("kill requires an armed failpoint").point;
        // The kill error is returned either way; a sink that also failed
        // to take the torn prefix is counted, not silently dropped.
        let results = [self.out.write_all(partial), self.out.flush()];
        let failures = results.iter().filter(|r| r.is_err()).count() as u64;
        if failures > 0 {
            pii_telemetry::counter("store.kill.io_error", failures);
        }
        self.offset = self.offset.saturating_add(partial.len() as u64);
        if let Some(f) = self.fail.as_mut() {
            f.dead = true;
        }
        point.killed()
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if let Some(fail) = self.fail {
            if fail.dead {
                return Err(fail.point.killed());
            }
            if let FailPoint::AtByte(limit) = fail.point {
                if self.offset.saturating_add(bytes.len() as u64) > limit {
                    let keep = limit.saturating_sub(self.offset) as usize;
                    return Err(self.kill(&bytes[..keep]));
                }
            }
        }
        self.out.write_all(bytes)?;
        self.offset = self.offset.saturating_add(bytes.len() as u64);
        Ok(())
    }

    /// The byte at which an armed structural fail point tears the segment
    /// about to be written (`None`: no kill due on this segment).
    fn segment_cut(
        &self,
        kind: SegmentKind,
        header_len: usize,
        segment_len: usize,
    ) -> Option<usize> {
        let fail = self.fail.filter(|f| !f.dead)?;
        if kind != SegmentKind::Site {
            return None;
        }
        let ordinal = fail.site_segments.saturating_add(1);
        match fail.point {
            FailPoint::MidHeader(n) if n == ordinal => Some(header_len / 2),
            FailPoint::MidPayload(n) if n == ordinal => {
                Some(header_len.saturating_add(segment_len.saturating_sub(header_len) / 2))
            }
            FailPoint::AfterSegment(n) if n == ordinal => Some(segment_len),
            _ => None,
        }
    }

    fn append_segment(
        &mut self,
        kind: SegmentKind,
        site_index: u32,
        records: u32,
        label: &str,
        encoded: format::EncodedRecord,
    ) -> std::io::Result<()> {
        let _span = pii_telemetry::span("store.write");
        self.buf.clear();
        format::write_segment(
            &mut self.buf,
            kind,
            site_index,
            records,
            encoded.raw_len,
            label,
            &encoded.payload,
        );
        let offset = self.offset;
        let header_len = format::SEGMENT_FIXED_LEN
            .saturating_add(label.len())
            .saturating_add(4);
        let segment = std::mem::take(&mut self.buf);
        if let Some(cut) = self.segment_cut(kind, header_len, segment.len()) {
            let err = self.kill(&segment[..cut]);
            self.buf = segment;
            return Err(err);
        }
        let written = self.write_all(&segment);
        self.buf = segment;
        written?;
        if kind == SegmentKind::Site {
            self.entries.push(IndexEntry {
                site_index,
                offset,
                segment_len: self.buf.len() as u32,
                records,
                label: label.to_string(),
            });
            self.summary.segments = self.summary.segments.saturating_add(1);
            if let Some(f) = self.fail.as_mut() {
                f.site_segments = f.site_segments.saturating_add(1);
            }
        }
        self.summary.raw_bytes = self
            .summary
            .raw_bytes
            .saturating_add(u64::from(encoded.raw_len));
        self.summary.compressed_bytes = self
            .summary
            .compressed_bytes
            .saturating_add(encoded.payload.len() as u64);
        pii_telemetry::counter("store.segments_written", 1);
        pii_telemetry::observe("store.segment_bytes", self.buf.len() as u64);
        Ok(())
    }

    /// Append one site's crawl. `site_index` is the site's canonical
    /// position in the universe; replay restores that order no matter when
    /// each shard completed.
    pub fn append_site(&mut self, site_index: usize, crawl: &SiteCrawl) -> std::io::Result<()> {
        self.append_segment(
            SegmentKind::Site,
            site_index as u32,
            crawl.records.len() as u32,
            &crawl.domain,
            format::encode_site(crawl),
        )
    }

    /// Seal the archive: canonical footer index, trailer, flush.
    pub fn finish(self) -> std::io::Result<StoreSummary> {
        self.finish_with_sink().map(|(summary, _)| summary)
    }

    /// [`ArchiveWriter::finish`], also handing back the sink (tests read
    /// the produced bytes out of a `Vec<u8>` writer).
    pub fn finish_with_sink(mut self) -> std::io::Result<(StoreSummary, W)> {
        let _span = pii_telemetry::span("store.flush");
        if let Some(fail) = self.fail {
            if fail.dead {
                return Err(fail.point.killed());
            }
            if fail.point == FailPoint::BeforeFinalize {
                return Err(self.kill(&[]));
            }
        }
        // A resumed run may have re-appended a site whose stale segment was
        // kept; canonical form keeps the newest segment per site, so the
        // footer — and everything replayed through it — matches what a
        // recovery scan of the same bytes would yield.
        format::canonicalize_index(&mut self.entries);
        self.summary.segments = self.entries.len();
        let footer_offset = self.offset;
        let mut tail = Vec::new();
        format::write_footer(&mut tail, &self.entries);
        let footer_len = tail.len() as u32;
        format::write_trailer(&mut tail, footer_offset, footer_len);
        match self.fail.map(|f| f.point) {
            Some(FailPoint::MidFooter) => {
                let cut = footer_len as usize / 2;
                return Err(self.kill(&tail[..cut]));
            }
            Some(FailPoint::MidTrailer) => {
                let cut = (footer_len as usize).saturating_add(format::TRAILER_LEN / 2);
                return Err(self.kill(&tail[..cut]));
            }
            _ => {}
        }
        self.write_all(&tail)?;
        self.out.flush()?;
        self.summary.bytes_written = self.offset;
        pii_telemetry::counter("store.bytes_written", self.summary.bytes_written);
        pii_telemetry::counter("store.raw_bytes", self.summary.raw_bytes);
        pii_telemetry::gauge(
            "store.compression_ratio_pct",
            (self.summary.compression_ratio() * 100.0) as i64,
        );
        Ok((self.summary, self.out))
    }
}

/// Write a whole dataset as an archive in one call — the non-streaming
/// convenience used by `pii-study export` (and tests). Site order in the
/// dataset is taken as canonical.
pub fn write_archive(
    path: &Path,
    meta: &ArchiveMeta,
    dataset: &CrawlDataset,
) -> std::io::Result<StoreSummary> {
    let mut writer = ArchiveWriter::create(path, meta)?;
    for (index, crawl) in dataset.crawls.iter().enumerate() {
        writer.append_site(index, crawl)?;
    }
    writer.finish()
}

/// What the reopen scan decided about the bytes already at the path.
enum TailScan {
    /// No committed meta segment — restart the archive from scratch.
    Restart,
    /// The leading magic is foreign; refuse to touch the file.
    NotAnArchive,
    /// The committed meta describes a different run; refuse to append.
    MetaMismatch,
    /// `keep` bytes hold the magic, meta, and the committed site segments
    /// listed in `entries`/`kept`; everything past `keep` is torn or stale.
    Resume {
        keep: u64,
        entries: Vec<IndexEntry>,
        kept: Vec<KeptSegment>,
        raw_bytes: u64,
        compressed_bytes: u64,
        dropped_finalization: bool,
    },
}

/// Walk the archive from the top, verifying each segment end to end (header
/// CRC, payload CRC, full decode), and report the longest committed prefix.
/// This is deliberately stricter than the reader's recovery scan — the
/// reader keeps a damaged site as a quarantined row because there is
/// nothing better to do at replay time, but a *resuming writer* can recrawl
/// the site, so anything short of a fully decodable segment is treated as
/// torn and truncated away.
fn scan_tail(source: &reader::Source, expected: &ArchiveMeta) -> TailScan {
    let len = source.len();
    let magic = source
        .read_at(0, format::FILE_MAGIC.len())
        .unwrap_or_default();
    if magic.len() < format::FILE_MAGIC.len() {
        return TailScan::Restart;
    }
    if magic.as_slice() != format::FILE_MAGIC {
        return TailScan::NotAnArchive;
    }
    let meta_at = format::FILE_MAGIC.len() as u64;
    let meta_header = match reader::read_header_at(source, meta_at) {
        Ok(h) if h.kind == SegmentKind::Meta => h,
        _ => return TailScan::Restart,
    };
    let stored: ArchiveMeta = match reader::verify_payload_for(source, meta_at, &meta_header)
        .and_then(|payload| format::decode_record(&payload, meta_header.raw_len))
    {
        Ok(meta) => meta,
        Err(_) => return TailScan::Restart,
    };
    // The vbin encoding is deterministic, so byte equality of the re-encoded
    // metas is semantic equality of the runs they describe.
    if format::encode_record(&stored).payload != format::encode_record(expected).payload {
        return TailScan::MetaMismatch;
    }
    // Newest segment per site wins (the file is append-only), so keep a map
    // keyed by site index and let later offsets overwrite earlier ones.
    let mut by_site: std::collections::BTreeMap<u32, (IndexEntry, CrawlOutcome, u64, u64)> =
        std::collections::BTreeMap::new();
    let mut at = meta_at.saturating_add(meta_header.segment_len() as u64);
    let mut dropped_finalization = false;
    while at < len {
        let peek = source
            .read_at(at, format::FOOTER_MAGIC.len())
            .unwrap_or_default();
        if peek.as_slice() == format::FOOTER_MAGIC {
            dropped_finalization = true;
            break;
        }
        if len - at == format::TRAILER_LEN as u64
            && source
                .read_at(at, format::TRAILER_LEN)
                .is_ok_and(|t| format::read_trailer(&t).is_ok())
        {
            dropped_finalization = true;
            break;
        }
        let header = match reader::read_header_at(source, at) {
            Ok(h) if h.kind == SegmentKind::Site => h,
            _ => break,
        };
        let crawl = match reader::verify_payload_for(source, at, &header)
            .and_then(|payload| format::decode_site(&payload, header.raw_len))
        {
            Ok(crawl) => crawl,
            Err(_) => break,
        };
        by_site.insert(
            header.site_index,
            (
                IndexEntry {
                    site_index: header.site_index,
                    offset: at,
                    segment_len: header.segment_len() as u32,
                    records: header.records,
                    label: header.label.clone(),
                },
                crawl.outcome,
                u64::from(header.raw_len),
                u64::from(header.payload_len),
            ),
        );
        at = at.saturating_add(header.segment_len() as u64);
    }
    let mut entries = Vec::with_capacity(by_site.len());
    let mut kept = Vec::with_capacity(by_site.len());
    let mut raw_bytes = u64::from(meta_header.raw_len);
    let mut compressed_bytes = u64::from(meta_header.payload_len);
    for (site_index, (entry, outcome, raw, compressed)) in by_site {
        entries.push(entry);
        kept.push(KeptSegment {
            site_index,
            outcome,
        });
        raw_bytes = raw_bytes.saturating_add(raw);
        compressed_bytes = compressed_bytes.saturating_add(compressed);
    }
    TailScan::Resume {
        keep: at,
        entries,
        kept,
        raw_bytes,
        compressed_bytes,
        dropped_finalization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose every write and flush fails.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink is broken"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("sink is broken"))
        }
    }

    #[test]
    fn kill_path_io_errors_are_counted() {
        let meta = ArchiveMeta {
            spec: UniverseSpec::default(),
            browser: BrowserKind::Firefox88Vanilla,
            faults: FaultProfile::None,
        };
        // Tear the file magic after four bytes: the kill writes that torn
        // prefix and flushes, and both fail on this sink. The counter is
        // process-global; no other test in this crate kills a writer over a
        // failing sink, so its change here is this test's own.
        pii_telemetry::enable();
        let count = || pii_telemetry::snapshot().counter("store.kill.io_error");
        let before = count();
        let killed =
            ArchiveWriter::new_with_failpoint(Vec::new(), &meta, Some(FailPoint::AtByte(4)));
        assert!(killed.is_err_and(|e| FailPoint::is_kill(&e)));
        assert_eq!(count(), before, "a healthy sink must not count");
        let killed =
            ArchiveWriter::new_with_failpoint(BrokenSink, &meta, Some(FailPoint::AtByte(4)));
        assert!(killed.is_err_and(|e| FailPoint::is_kill(&e)));
        assert_eq!(
            count(),
            before.saturating_add(2),
            "write_all and flush both failed"
        );
    }
}
