//! The corruption-tolerant [`ArchiveReader`].
//!
//! Opening an archive locates the footer index via the fixed-size trailer;
//! when the footer is damaged or the file was truncated, the reader falls
//! back to a sequential scan that recovers every complete segment (resyncing
//! on the segment magic after framing damage). Reading the dataset verifies
//! each segment's CRC and *skips* bit-flipped or truncated segments instead
//! of aborting: a skipped site surfaces as a `Quarantined` placeholder crawl
//! (so the funnel still accounts for it) plus a [`SkippedSegment`] note with
//! the record count the archive claimed, which the study feeds into the
//! existing `skipped_records` / degradation machinery.
//!
//! The reader has two backends behind one [`Source`]: in-memory bytes
//! (tests, corruption suites) and a buffered seekable file. The file backend
//! is what makes replay constant-memory: [`ArchiveReader::open`] reads only
//! the leading magic, the trailer, the footer, and the meta segment — never
//! the segment region — and every site's bytes are fetched on demand through
//! the footer index ([`ArchiveReader::read_entry`]). The recovery scan works
//! the same way, walking headers with bounded reads and resyncing through a
//! sliding window instead of a whole-file buffer. Both backends share every
//! line of framing, CRC, and quarantine logic, so the corruption proptests
//! that pin the memory backend pin the file backend too.

use crate::format::{self, FrameError, IndexEntry, SegmentKind};
use crate::writer::ArchiveMeta;
use parking_lot::Mutex;
use pii_crawler::{CrawlDataset, CrawlOutcome, SiteCrawl};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Window size for the bounded resync scan over a damaged region.
const SCAN_WINDOW: usize = 64 * 1024;

/// Why an archive could not be opened at all. Damage *inside* the archive
/// never produces this — only a missing/unreadable file, foreign bytes, or
/// an unrecoverable meta segment do.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// The file is not a `pii-store` archive (bad leading magic).
    NotAnArchive,
    /// The meta segment (spec, browser, fault profile) is unreadable, so
    /// there is nothing to replay against.
    MetaUnreadable(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "archive I/O: {e}"),
            StoreError::NotAnArchive => f.write_str("not a pii-store archive"),
            StoreError::MetaUnreadable(why) => write!(f, "archive meta unreadable: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// One segment the reader had to give up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedSegment {
    /// Site domain when recoverable (from the footer index or an intact
    /// header), else `None` for an anonymous damaged region.
    pub label: Option<String>,
    /// Byte offset of the segment (or damaged region) in the file.
    pub offset: u64,
    /// Fetch records the archive claimed for the segment (0 when unknown) —
    /// fed into `DetectionReport::skipped_records` so the loss is counted.
    pub records: u32,
    pub reason: String,
}

impl SkippedSegment {
    /// `domain` or `<offset NNN>` — the degradation table's row key.
    pub fn describe(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("<offset {}>", self.offset))
    }
}

/// Health accounting for one replay pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Site segments the index (or recovery scan) knows about.
    pub segments_total: usize,
    /// Segments whose checksums verified and whose payloads decoded.
    pub segments_verified: usize,
    /// Segments lost to corruption or truncation.
    pub skipped: Vec<SkippedSegment>,
    /// False when the footer was unusable and the reader recovered by
    /// scanning segments sequentially.
    pub used_footer: bool,
}

impl ReplayReport {
    /// Total fetch records the skipped segments claimed to hold.
    pub fn skipped_records(&self) -> usize {
        self.skipped.iter().map(|s| s.records as usize).sum()
    }
}

/// A replayed capture: the dataset plus what it cost to read it back.
#[derive(Debug, Clone)]
pub struct Replay {
    pub dataset: CrawlDataset,
    pub report: ReplayReport,
}

/// Where archive bytes come from. Both variants expose the same bounded
/// random-access read, so every framing/CRC decision above them is shared.
/// Crate-visible so `ArchiveWriter::open_append` can run the same tail scan
/// over the file it is about to truncate and continue.
pub(crate) enum Source {
    /// The whole archive in memory (tests, corruption suites).
    Memory(Vec<u8>),
    /// A seekable file handle; only the requested ranges are ever read.
    /// The mutex serialises seek+read pairs so `&self` reads stay coherent
    /// across the parallel replay workers.
    File {
        file: Mutex<std::fs::File>,
        len: u64,
    },
}

impl Source {
    pub(crate) fn len(&self) -> u64 {
        match self {
            Source::Memory(bytes) => bytes.len() as u64,
            Source::File { len, .. } => *len,
        }
    }

    /// Up to `len` bytes at `offset`, clamped to EOF: a short (or empty)
    /// result means the range ran off the end, exactly like a slice `get`
    /// on the memory backend. The clamp also caps the allocation, so a
    /// corrupt length field can never ask for more than the file holds.
    pub(crate) fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let available = self.len().saturating_sub(offset);
        let want = (len as u64).min(available) as usize;
        match self {
            Source::Memory(bytes) => {
                let at = (offset as usize).min(bytes.len());
                Ok(bytes[at..at + want].to_vec())
            }
            Source::File { file, .. } => {
                let mut buf = vec![0u8; want];
                let mut file = file.lock();
                file.seek(SeekFrom::Start(offset))?;
                file.read_exact(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// [`Source::read_at`] with I/O failure degraded to an empty buffer —
    /// the recovery scan treats an unreadable range like EOF and keeps
    /// whatever it already indexed, rather than aborting the replay. Each
    /// such degradation bumps `store.read.io_error_as_eof`.
    fn read_or_eof(&self, offset: u64, len: usize) -> Vec<u8> {
        self.read_at(offset, len).unwrap_or_else(|_| {
            pii_telemetry::counter("store.read.io_error_as_eof", 1);
            Vec::new()
        })
    }
}

/// Random-access, checksum-verifying reader over one archive.
pub struct ArchiveReader {
    source: Source,
    meta: ArchiveMeta,
    /// Site-segment index in canonical (site-index) order.
    index: Vec<IndexEntry>,
    /// Anonymous damage found while building the index (recovery scan only).
    scan_damage: Vec<SkippedSegment>,
    used_footer: bool,
}

impl ArchiveReader {
    /// Open and index an archive file **without reading its body**: only
    /// the leading magic, the trailer, the footer index (or, on damage, a
    /// bounded sequential scan), and the meta segment are fetched. Segment
    /// bytes are read per site, so opening a multi-gigabyte archive costs
    /// the footer, not the file.
    pub fn open(path: &Path) -> Result<ArchiveReader, StoreError> {
        let mut span = pii_telemetry::span("store.open");
        span.add_arg("path", &path.display().to_string());
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        ArchiveReader::from_source(Source::File {
            file: Mutex::new(file),
            len,
        })
    }

    /// Open from in-memory bytes (tests, corruption suites).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<ArchiveReader, StoreError> {
        ArchiveReader::from_source(Source::Memory(bytes))
    }

    fn from_source(source: Source) -> Result<ArchiveReader, StoreError> {
        let magic = source.read_at(0, format::FILE_MAGIC.len())?;
        if magic.as_slice() != format::FILE_MAGIC {
            return Err(StoreError::NotAnArchive);
        }
        let (index, scan_damage, used_footer) = match ArchiveReader::index_from_footer(&source) {
            Some(index) => (index, Vec::new(), true),
            None => {
                let (index, damage) = ArchiveReader::index_from_scan(&source);
                (index, damage, false)
            }
        };
        // The meta segment is the one record replay cannot proceed without.
        let meta_at = format::FILE_MAGIC.len() as u64;
        let meta = read_header_at(&source, meta_at)
            .and_then(|h| verify_payload_for(&source, meta_at, &h).map(|p| (h, p)))
            .and_then(|(h, payload)| {
                if h.kind == SegmentKind::Meta {
                    format::decode_record::<ArchiveMeta>(&payload, h.raw_len)
                } else {
                    Err(FrameError::Corrupt("first segment is not meta"))
                }
            })
            .map_err(|e| StoreError::MetaUnreadable(e.to_string()))?;
        pii_telemetry::counter("store.archives_opened", 1);
        Ok(ArchiveReader {
            source,
            meta,
            index,
            scan_damage,
            used_footer,
        })
    }

    /// The capture's provenance (universe spec, browser, fault profile).
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// Total archive size in bytes (whatever the backend holds).
    pub fn size_bytes(&self) -> u64 {
        self.source.len()
    }

    /// Site segments the archive is indexed to contain.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The site-segment index in canonical (site-index) order — the
    /// iteration spine for streaming replay.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Anonymous damaged regions found while indexing (recovery scan only);
    /// a streaming replay seeds its skip list with these, exactly as
    /// [`ArchiveReader::read_dataset`] does.
    pub fn scan_damage(&self) -> &[SkippedSegment] {
        &self.scan_damage
    }

    /// False when the footer was unusable and the reader recovered by
    /// scanning segments sequentially.
    pub fn used_footer(&self) -> bool {
        self.used_footer
    }

    fn index_from_footer(source: &Source) -> Option<Vec<IndexEntry>> {
        let len = source.len();
        if len < format::TRAILER_LEN as u64 {
            return None;
        }
        let tail = source
            .read_at(len - format::TRAILER_LEN as u64, format::TRAILER_LEN)
            .ok()?;
        let (offset, flen) = format::read_trailer(&tail).ok()?;
        let footer = source.read_at(offset, flen as usize).ok()?;
        if footer.len() != flen as usize {
            return None; // claimed footer runs past EOF — truncated
        }
        let mut index = format::read_footer(&footer, 0, footer.len()).ok()?;
        format::canonicalize_index(&mut index);
        Some(index)
    }

    /// Rebuild the index by walking segments from the top of the file —
    /// the path taken when the footer or trailer is lost. Framing damage
    /// resyncs on the next segment magic; everything before EOF with an
    /// intact header becomes an index entry (payloads are verified later,
    /// per read, exactly like the footer path). All reads are bounded:
    /// headers cost their own size, resync slides a [`SCAN_WINDOW`] buffer.
    fn index_from_scan(source: &Source) -> (Vec<IndexEntry>, Vec<SkippedSegment>) {
        let len = source.len();
        let mut index = Vec::new();
        let mut damage = Vec::new();
        let mut at = format::FILE_MAGIC.len() as u64;
        while at < len {
            // Reaching the footer (even one whose CRC failed, which is why
            // we are scanning) or a bare trailer ends the segment region.
            let peek = source.read_or_eof(at, format::FOOTER_MAGIC.len());
            if peek.as_slice() == format::FOOTER_MAGIC {
                break;
            }
            if len - at == format::TRAILER_LEN as u64
                && format::read_trailer(&source.read_or_eof(at, format::TRAILER_LEN)).is_ok()
            {
                break;
            }
            match read_header_at(source, at) {
                Ok(header) => {
                    if header.kind == SegmentKind::Site {
                        index.push(IndexEntry {
                            site_index: header.site_index,
                            offset: at,
                            segment_len: header.segment_len() as u32,
                            records: header.records,
                            label: header.label.clone(),
                        });
                    }
                    at += header.segment_len() as u64;
                }
                Err(FrameError::Truncated) => {
                    damage.push(SkippedSegment {
                        label: None,
                        offset: at,
                        records: 0,
                        reason: "truncated tail".to_string(),
                    });
                    break;
                }
                Err(_) => {
                    damage.push(SkippedSegment {
                        label: None,
                        offset: at,
                        records: 0,
                        reason: "unreadable region (bad segment framing)".to_string(),
                    });
                    match ArchiveReader::resync(source, at + 1) {
                        Some((next, true)) => at = next,
                        _ => break,
                    }
                }
            }
        }
        format::canonicalize_index(&mut index);
        (index, damage)
    }

    /// Find the next segment (or footer) magic at/after `from`, reading
    /// through a sliding window instead of the whole tail. Returns the
    /// match offset and whether it was a *segment* magic (scanning resumes
    /// there; a footer magic ends the segment region instead).
    fn resync(source: &Source, from: u64) -> Option<(u64, bool)> {
        let len = source.len();
        let mut pos = from;
        while pos + 4 <= len {
            let want = SCAN_WINDOW.min((len - pos) as usize);
            let buf = source.read_or_eof(pos, want);
            if buf.len() < 4 {
                return None;
            }
            for i in 0..=buf.len() - 4 {
                let word = &buf[i..i + 4];
                if word == format::SEGMENT_MAGIC {
                    return Some((pos + i as u64, true));
                }
                if word == format::FOOTER_MAGIC {
                    return Some((pos + i as u64, false));
                }
            }
            // Overlap by 3 bytes so a magic straddling the window edge is
            // still found.
            pos += (buf.len() - 3) as u64;
        }
        None
    }

    /// Verify and decode the site crawl behind one index entry. Exactly one
    /// bounded read: the segment's own bytes, via the entry's offset/length.
    fn decode_entry(&self, entry: &IndexEntry) -> Result<SiteCrawl, FrameError> {
        let segment = self
            .source
            .read_at(entry.offset, entry.segment_len as usize)
            .map_err(|_| FrameError::Corrupt("archive I/O"))?;
        let header = format::read_segment_header(&segment, 0)?;
        if header.kind != SegmentKind::Site {
            return Err(FrameError::Corrupt("expected a site segment"));
        }
        let payload = format::verify_payload_at(&segment, 0, &header)?;
        format::decode_site(payload, header.raw_len)
    }

    /// Random access to one site's crawl (verified; `None` when the domain
    /// is not indexed or its segment is damaged).
    pub fn site(&self, domain: &str) -> Option<SiteCrawl> {
        let entry = self.index.iter().find(|e| e.label == domain)?;
        self.decode_entry(entry).ok()
    }

    /// Verify and decode one indexed segment — the streaming replay's
    /// per-site read. Shares the CRC/decode path with
    /// [`ArchiveReader::read_dataset`]; on failure the caller builds the
    /// same placeholder via [`ArchiveReader::quarantine_placeholder`].
    pub fn read_entry(&self, entry: &IndexEntry) -> Result<SiteCrawl, FrameError> {
        self.decode_entry(entry)
    }

    /// The `Quarantined` placeholder row standing in for a damaged segment —
    /// one shared constructor so the materialized and streaming replays
    /// degrade identically, byte for byte.
    pub fn quarantine_placeholder(entry: &IndexEntry, error: &FrameError) -> SiteCrawl {
        SiteCrawl {
            domain: entry.label.clone(),
            outcome: CrawlOutcome::Quarantined(format!(
                "archive: segment {} ({} records lost)",
                error, entry.records
            )),
            records: Vec::new(),
            stored_cookies: Vec::new(),
            resilience: None,
        }
    }

    /// Read the whole capture back, skipping damaged segments.
    ///
    /// Every indexed site keeps a row in the dataset: a damaged segment
    /// yields a `Quarantined` placeholder (reason prefixed with
    /// `archive:`), so the funnel and degradation report account for the
    /// loss instead of the site silently vanishing.
    pub fn read_dataset(&self) -> Replay {
        let _span = pii_telemetry::span("store.read");
        let mut report = ReplayReport {
            segments_total: self.index.len(),
            used_footer: self.used_footer,
            skipped: self.scan_damage.clone(),
            ..ReplayReport::default()
        };
        let mut crawls = Vec::with_capacity(self.index.len());
        for entry in &self.index {
            match self.decode_entry(entry) {
                Ok(crawl) => {
                    report.segments_verified += 1;
                    pii_telemetry::counter("store.segments_verified", 1);
                    crawls.push(crawl);
                }
                Err(e) => {
                    pii_telemetry::counter("store.segments_skipped", 1);
                    report.skipped.push(SkippedSegment {
                        label: Some(entry.label.clone()),
                        offset: entry.offset,
                        records: entry.records,
                        reason: e.to_string(),
                    });
                    crawls.push(ArchiveReader::quarantine_placeholder(entry, &e));
                }
            }
        }
        Replay {
            dataset: CrawlDataset {
                browser: self.meta.browser,
                crawls,
            },
            report,
        }
    }
}

/// Read and CRC-verify the segment header at `at` with two bounded reads:
/// the fixed header part (which carries the label length), then the label
/// and header CRC. Parsing is delegated to [`format::read_segment_header`]
/// over the assembled buffer, so truncation/corruption classification is
/// bit-identical to the in-memory path.
pub(crate) fn read_header_at(
    source: &Source,
    at: u64,
) -> Result<format::SegmentHeader, FrameError> {
    let mut buf = source
        .read_at(at, format::SEGMENT_FIXED_LEN)
        .map_err(|_| FrameError::Corrupt("archive I/O"))?;
    if let Some(&[lo, hi]) = buf.get(format::SEGMENT_FIXED_LEN - 2..format::SEGMENT_FIXED_LEN) {
        let label_len = u16::from_le_bytes([lo, hi]) as usize;
        let rest = source
            .read_at(at + format::SEGMENT_FIXED_LEN as u64, label_len + 4)
            .map_err(|_| FrameError::Corrupt("archive I/O"))?;
        buf.extend_from_slice(&rest);
    }
    format::read_segment_header(&buf, 0)
}

/// Read and CRC-verify the payload for a header parsed at `at`.
pub(crate) fn verify_payload_for(
    source: &Source,
    at: u64,
    header: &format::SegmentHeader,
) -> Result<Vec<u8>, FrameError> {
    let start = at + header.encoded_len() as u64;
    let payload = source
        .read_at(start, header.payload_len as usize)
        .map_err(|_| FrameError::Corrupt("archive I/O"))?;
    if payload.len() != header.payload_len as usize {
        return Err(FrameError::Truncated);
    }
    if format::crc32(&payload) != header.payload_crc {
        return Err(FrameError::Corrupt("segment payload CRC"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_io_error_read_as_eof_is_counted() {
        // A file backend that claims more bytes than the file holds: the
        // read past the real end fails with an I/O error, not a short read.
        let path =
            std::env::temp_dir().join(format!("pii-store-read-or-eof-{}.bin", std::process::id()));
        std::fs::write(&path, [0u8; 16]).unwrap();
        let source = Source::File {
            file: Mutex::new(std::fs::File::open(&path).unwrap()),
            len: 64,
        };
        // The counter is process-global; no other test in this crate reads
        // through a failing file, so its change here is this test's own.
        pii_telemetry::enable();
        let before = pii_telemetry::snapshot().counter("store.read.io_error_as_eof");
        assert_eq!(source.read_or_eof(0, 8), vec![0u8; 8]);
        let clean = pii_telemetry::snapshot().counter("store.read.io_error_as_eof");
        assert!(source.read_or_eof(8, 32).is_empty());
        let after = pii_telemetry::snapshot().counter("store.read.io_error_as_eof");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(clean, before, "a clean read must not count");
        assert_eq!(after, clean + 1);
    }
}
