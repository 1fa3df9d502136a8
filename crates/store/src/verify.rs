//! Archive health checking and repair — the `store verify` / `store repair`
//! CLI subcommands, built on the reader's recovery scan.
//!
//! `verify` opens the archive exactly the way replay would (footer first,
//! recovery scan on damage) and then checks every indexed segment end to
//! end: header CRC, payload CRC, full decode. It never modifies the file.
//! An archive is *clean* only when it is finalized (footer + trailer
//! intact) **and** every segment verifies — a torn crash artifact is
//! recoverable but not clean, which is what gives `store verify` its
//! non-zero exit code in the chaos smoke test.
//!
//! `repair` rewrites the recoverable content into a fresh, finalized
//! archive: verified segments are re-encoded as-is, damaged *indexed*
//! segments become the same `Quarantined` placeholder rows replay would
//! synthesize (so the funnel total is preserved and the loss stays
//! explicit), and anonymous damaged regions — bytes no index entry claims —
//! are dropped and counted.

use crate::reader::{ArchiveReader, SkippedSegment, StoreError};
use crate::writer::ArchiveWriter;
use std::path::Path;

/// What `verify` found in one archive.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// True when the footer/trailer were intact and used; false when the
    /// reader had to fall back to the recovery scan (torn archive).
    pub finalized: bool,
    /// Site segments the index (or scan) knows about.
    pub segments_total: usize,
    /// Segments whose checksums verified and whose payloads decoded.
    pub segments_verified: usize,
    /// Indexed segments that failed verification, plus anonymous damaged
    /// regions from the recovery scan.
    pub damaged: Vec<SkippedSegment>,
    /// Archive size in bytes.
    pub bytes: u64,
}

impl VerifyReport {
    /// Nothing to repair: finalized and every segment verified.
    pub fn is_clean(&self) -> bool {
        self.finalized && self.damaged.is_empty()
    }

    /// Human-readable multi-line summary (the CLI's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "archive: {} bytes, {} segments indexed, {} verified, {}\n",
            self.bytes,
            self.segments_total,
            self.segments_verified,
            if self.finalized {
                "finalized"
            } else {
                "NOT finalized (torn tail or lost footer)"
            }
        ));
        for d in &self.damaged {
            out.push_str(&format!(
                "  damaged: {} at offset {} ({} records): {}\n",
                d.describe(),
                d.offset,
                d.records,
                d.reason
            ));
        }
        out.push_str(if self.is_clean() {
            "status: clean\n"
        } else {
            "status: NEEDS REPAIR\n"
        });
        out
    }
}

/// What `repair` did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Segments that verified and were copied into the repaired archive.
    pub segments_recovered: usize,
    /// Damaged indexed segments replaced by `Quarantined` placeholder rows.
    pub segments_quarantined: usize,
    /// Anonymous damaged regions (no index entry) dropped outright.
    pub regions_dropped: usize,
}

/// Check every byte of the archive at `path` that replay would depend on.
/// Read-only; errors only when the file cannot be opened as an archive at
/// all (foreign bytes, unreadable meta) — internal damage is reported, not
/// raised.
pub fn verify(path: &Path) -> Result<VerifyReport, StoreError> {
    let reader = ArchiveReader::open(path)?;
    let mut report = VerifyReport {
        finalized: reader.used_footer(),
        segments_total: reader.len(),
        segments_verified: 0,
        damaged: reader.scan_damage().to_vec(),
        bytes: reader.size_bytes(),
    };
    for entry in reader.entries() {
        match reader.read_entry(entry) {
            Ok(_) => report.segments_verified += 1,
            Err(e) => report.damaged.push(SkippedSegment {
                label: Some(entry.label.clone()),
                offset: entry.offset,
                records: entry.records,
                reason: e.to_string(),
            }),
        }
    }
    Ok(report)
}

/// Rewrite the recoverable content of `path` into a fresh finalized archive
/// at `out`. Every indexed site keeps a row — verified segments verbatim,
/// damaged ones as `Quarantined` placeholders — so the repaired archive
/// replays with the same funnel totals the damaged one would, minus the
/// anonymous regions nothing claimed.
///
/// When `out` names the same file as `path` (the two canonicalize to one
/// path), the repair is written to the sibling `*.repair-tmp` and renamed
/// over that file only once it is finalized: the reader never has its
/// file truncated under it, and a crash mid-repair loses nothing.
pub fn repair(path: &Path, out: &Path) -> Result<RepairSummary, StoreError> {
    let reader = ArchiveReader::open(path)?;
    let target = std::fs::canonicalize(path)?;
    if !out.exists() || std::fs::canonicalize(out)? != target {
        return rewrite(&reader, out);
    }
    let tmp = target.with_extension("repair-tmp");
    let summary = rewrite(&reader, &tmp)?;
    std::fs::rename(&tmp, &target)?;
    Ok(summary)
}

/// [`repair`]'s rewrite of everything `reader` can recover into `out`.
fn rewrite(reader: &ArchiveReader, out: &Path) -> Result<RepairSummary, StoreError> {
    let mut writer = ArchiveWriter::create(out, reader.meta())?;
    let mut summary = RepairSummary {
        regions_dropped: reader.scan_damage().len(),
        ..RepairSummary::default()
    };
    for entry in reader.entries() {
        match reader.read_entry(entry) {
            Ok(crawl) => {
                writer.append_site(entry.site_index as usize, &crawl)?;
                summary.segments_recovered += 1;
            }
            Err(e) => {
                let placeholder = ArchiveReader::quarantine_placeholder(entry, &e);
                writer.append_site(entry.site_index as usize, &placeholder)?;
                summary.segments_quarantined += 1;
            }
        }
    }
    writer.finish()?;
    Ok(summary)
}
