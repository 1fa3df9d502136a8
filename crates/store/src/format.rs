//! On-disk framing of the `.store` archive (format version 1).
//!
//! ```text
//! file    := HEADER segment* footer trailer
//! HEADER  := b"PIISTOR1"                                  (8 bytes)
//! segment := b"PSEG" kind:u8 site_index:u32 records:u32
//!            raw_len:u32 payload_len:u32 payload_crc:u32
//!            label_len:u16 label header_crc:u32 payload
//! footer  := b"PIDX" count:u32 entry* footer_crc:u32
//! entry   := site_index:u32 offset:u64 seg_len:u32 records:u32
//!            label_len:u16 label
//! trailer := footer_offset:u64 footer_len:u32 b"PIISEND1"  (20 bytes)
//! ```
//!
//! All integers are little-endian. `payload` is the DEFLATE-compressed
//! [`crate::vbin`] encoding of one record ([`encode_record`]); `payload_crc`
//! is the CRC-32 (IEEE) of the *compressed* bytes, so any single bit flip in
//! a segment body is detected before inflation is even attempted.
//! `header_crc` covers every header byte before it, so framing damage is
//! distinguishable from body damage: a bad header makes the reader resync
//! by scanning for the next `PSEG` magic, a bad body skips exactly one
//! segment. The footer index enables per-site random access; the fixed-size
//! trailer makes it discoverable from the end of the file. A truncated file
//! loses the footer and any partial tail segment — never the complete
//! segments before them, which the sequential recovery scan still yields.

use pii_hashes::crc::Crc32;
use pii_hashes::Hasher;
use serde::{Deserialize, Serialize};

/// Leading file magic.
pub const FILE_MAGIC: &[u8; 8] = b"PIISTOR1";
/// Per-segment magic.
pub const SEGMENT_MAGIC: &[u8; 4] = b"PSEG";
/// Footer-index magic.
pub const FOOTER_MAGIC: &[u8; 4] = b"PIDX";
/// Trailer magic (last 8 bytes of a complete archive).
pub const TRAILER_MAGIC: &[u8; 8] = b"PIISEND1";
/// Total trailer size: footer offset (8) + footer length (4) + magic (8).
pub const TRAILER_LEN: usize = 20;
/// Fixed-size part of a segment header, excluding label and header CRC.
pub const SEGMENT_FIXED_LEN: usize = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 2;

/// What a segment holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Archive metadata (one per archive, always first).
    Meta,
    /// One site's crawl.
    Site,
}

impl SegmentKind {
    fn code(self) -> u8 {
        match self {
            SegmentKind::Meta => 0,
            SegmentKind::Site => 1,
        }
    }

    fn from_code(code: u8) -> Option<SegmentKind> {
        match code {
            0 => Some(SegmentKind::Meta),
            1 => Some(SegmentKind::Site),
            _ => None,
        }
    }
}

/// A parsed segment header (the framing around one payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentHeader {
    pub kind: SegmentKind,
    /// Canonical position of the record (universe site order); replay sorts
    /// by this, so the archive may be appended in completion order.
    pub site_index: u32,
    /// Number of fetch records inside the payload — readable without
    /// inflating, so a skipped segment can still account for its loss.
    pub records: u32,
    /// Uncompressed payload size.
    pub raw_len: u32,
    /// Compressed payload size.
    pub payload_len: u32,
    /// CRC-32 of the compressed payload bytes.
    pub payload_crc: u32,
    /// Site domain (or `"meta"`).
    pub label: String,
}

impl SegmentHeader {
    /// Header size on disk including the trailing header CRC.
    pub fn encoded_len(&self) -> usize {
        SEGMENT_FIXED_LEN + self.label.len() + 4
    }

    /// Whole-segment size on disk (header + payload).
    pub fn segment_len(&self) -> usize {
        self.encoded_len() + self.payload_len as usize
    }
}

/// Why a segment (or file region) could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes left for the structure being read.
    Truncated,
    /// Magic or CRC mismatch; the payload `&'static str` says which.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("truncated"),
            FrameError::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

/// CRC-32 (IEEE) of a byte slice, via the streaming hasher in `pii-hashes`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    Hasher::update(&mut h, data);
    h.value()
}

/// A record run through the archive codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRecord {
    /// Uncompressed ([`crate::vbin`]-encoded) size.
    pub raw_len: u32,
    /// DEFLATE-compressed bytes — what goes in the segment body.
    pub payload: Vec<u8>,
}

/// The shared record codec: the serde value tree rendered through
/// [`crate::vbin`] then DEFLATE. Both the archive writer and the
/// directory-export path encode records through this one helper, so the
/// two never drift. The binary form exists for replay speed — see the
/// `vbin` module doc — and is *exact*: floats round-trip by bit pattern
/// rather than through decimal formatting.
pub fn encode_record<T: Serialize>(value: &T) -> EncodedRecord {
    let raw = {
        let _span = pii_telemetry::span("store.encode");
        // lint:allow(W04) -- encode side, not replay: serializing the workspace's own derive-generated records is infallible
        let tree = serde::value::to_value(value).expect("archive records serialize");
        let mut raw = Vec::new();
        crate::vbin::encode_value(&tree, &mut raw);
        raw
    };
    deflate_record(&raw)
}

/// The DEFLATE step shared by both record encoders.
fn deflate_record(raw: &[u8]) -> EncodedRecord {
    let _span = pii_telemetry::span("store.deflate");
    EncodedRecord {
        raw_len: raw.len() as u32,
        payload: pii_encodings::deflate::compress(raw),
    }
}

/// Inverse of [`encode_record`]. `raw_len` is the segment header's
/// uncompressed size, for which the inflater reserves its output up front.
/// The header passed its CRC but may still be crafted, so the reservation
/// is capped at what the payload could inflate to: a wrong `raw_len` costs
/// reallocations, never a different result.
pub fn decode_record<T: for<'de> Deserialize<'de>>(
    payload: &[u8],
    raw_len: u32,
) -> Result<T, FrameError> {
    let raw = inflate_payload(payload, raw_len)?;
    let tree = crate::vbin::decode_value(&raw).map_err(|_| FrameError::Corrupt("record body"))?;
    serde::value::from_value(tree).map_err(|_| FrameError::Corrupt("record shape"))
}

/// The inflate step shared by both record decoders.
fn inflate_payload(payload: &[u8], raw_len: u32) -> Result<Vec<u8>, FrameError> {
    pii_encodings::deflate::decompress_with_capacity(payload, raw_len as usize)
        .map_err(|_| FrameError::Corrupt("deflate stream"))
}

/// [`encode_record`] for site segments, bypassing the intermediate value
/// tree via [`crate::fast`]. Byte-identical output — `crates/store/src/fast.rs`
/// tests and the `tests/store.rs` proptests pin the equivalence.
pub fn encode_site(crawl: &pii_crawler::SiteCrawl) -> EncodedRecord {
    let mut raw = Vec::new();
    {
        let _span = pii_telemetry::span("store.encode");
        crate::fast::encode_site_crawl(crawl, &mut raw);
    }
    deflate_record(&raw)
}

/// [`decode_record`] for site segments, through the direct decoder in
/// [`crate::fast`]. A payload in any other shape than [`encode_site`]
/// writes — an unknown field, say — is `Corrupt`, so readers skip and count
/// the segment instead of guessing at it. `raw_len` is as for
/// [`decode_record`].
pub fn decode_site(payload: &[u8], raw_len: u32) -> Result<pii_crawler::SiteCrawl, FrameError> {
    let raw = inflate_payload(payload, raw_len)?;
    crate::fast::decode_site_crawl(&raw).map_err(|_| FrameError::Corrupt("record shape"))
}

/// Serialize one segment (header + payload) into `out`.
pub fn write_segment(
    out: &mut Vec<u8>,
    kind: SegmentKind,
    site_index: u32,
    records: u32,
    raw_len: u32,
    label: &str,
    payload: &[u8],
) {
    let start = out.len();
    out.extend_from_slice(SEGMENT_MAGIC);
    out.push(kind.code());
    out.extend_from_slice(&site_index.to_le_bytes());
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label.as_bytes());
    let header_crc = crc32(&out[start..]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(payload);
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, FrameError> {
    match bytes.get(at..at.saturating_add(4)) {
        Some(&[a, b, c, d]) => Ok(u32::from_le_bytes([a, b, c, d])),
        _ => Err(FrameError::Truncated),
    }
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, FrameError> {
    match bytes.get(at..at.saturating_add(8)) {
        Some(&[a, b, c, d, e, f, g, h]) => Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => Err(FrameError::Truncated),
    }
}

fn read_u16(bytes: &[u8], at: usize) -> Result<u16, FrameError> {
    match bytes.get(at..at.saturating_add(2)) {
        Some(&[a, b]) => Ok(u16::from_le_bytes([a, b])),
        _ => Err(FrameError::Truncated),
    }
}

/// Parse and CRC-verify the segment header at `offset`. Returns the header;
/// the payload spans `offset + header.encoded_len() ..` for
/// `header.payload_len` bytes (not yet verified — see
/// [`verify_payload_at`]).
pub fn read_segment_header(bytes: &[u8], offset: usize) -> Result<SegmentHeader, FrameError> {
    let magic = bytes.get(offset..offset + 4).ok_or(FrameError::Truncated)?;
    if magic != SEGMENT_MAGIC {
        return Err(FrameError::Corrupt("segment magic"));
    }
    let kind = SegmentKind::from_code(*bytes.get(offset + 4).ok_or(FrameError::Truncated)?)
        .ok_or(FrameError::Corrupt("segment kind"))?;
    let site_index = read_u32(bytes, offset + 5)?;
    let records = read_u32(bytes, offset + 9)?;
    let raw_len = read_u32(bytes, offset + 13)?;
    let payload_len = read_u32(bytes, offset + 17)?;
    let payload_crc = read_u32(bytes, offset + 21)?;
    let label_len = read_u16(bytes, offset + 25)? as usize;
    let label_bytes = bytes
        .get(offset + SEGMENT_FIXED_LEN..offset + SEGMENT_FIXED_LEN + label_len)
        .ok_or(FrameError::Truncated)?;
    let crc_at = offset + SEGMENT_FIXED_LEN + label_len;
    let stored_crc = read_u32(bytes, crc_at)?;
    if crc32(&bytes[offset..crc_at]) != stored_crc {
        return Err(FrameError::Corrupt("segment header CRC"));
    }
    let label = std::str::from_utf8(label_bytes)
        .map_err(|_| FrameError::Corrupt("segment label"))?
        .to_string();
    Ok(SegmentHeader {
        kind,
        site_index,
        records,
        raw_len,
        payload_len,
        payload_crc,
        label,
    })
}

/// The payload slice for a header parsed at `offset`, after checking its
/// CRC against the header's expectation.
pub fn verify_payload_at<'a>(
    bytes: &'a [u8],
    offset: usize,
    header: &SegmentHeader,
) -> Result<&'a [u8], FrameError> {
    let start = offset + header.encoded_len();
    let payload = bytes
        .get(start..start + header.payload_len as usize)
        .ok_or(FrameError::Truncated)?;
    if crc32(payload) != header.payload_crc {
        return Err(FrameError::Corrupt("segment payload CRC"));
    }
    Ok(payload)
}

/// One footer-index entry: where a segment lives and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    pub site_index: u32,
    pub offset: u64,
    pub segment_len: u32,
    pub records: u32,
    pub label: String,
}

/// Put an index into canonical form: sorted by site index, one entry per
/// site. When the same site index appears more than once — a resumed crawl
/// re-appended a site whose earlier segment was kept in the file (e.g. a
/// quarantined crawl recrawled after `--resume`) — the entry at the highest
/// offset wins: the archive is append-only, so later bytes are the newer
/// record. Both the writer's finalize and the reader's index paths run
/// through this one helper, so "which segment speaks for site N" can never
/// differ between a footer and a recovery scan.
pub fn canonicalize_index(entries: &mut Vec<IndexEntry>) {
    entries.sort_by(|a, b| {
        a.site_index
            .cmp(&b.site_index)
            .then(a.offset.cmp(&b.offset))
    });
    entries.dedup_by(|later, kept| {
        if later.site_index == kept.site_index {
            std::mem::swap(later, kept);
            true
        } else {
            false
        }
    });
}

/// Serialize the footer index. Entries must already be in canonical
/// (site-index) order so the footer bytes are deterministic regardless of
/// the completion order the segments were appended in.
pub fn write_footer(out: &mut Vec<u8>, entries: &[IndexEntry]) {
    let mut body = Vec::with_capacity(entries.len() * 32);
    body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        body.extend_from_slice(&e.site_index.to_le_bytes());
        body.extend_from_slice(&e.offset.to_le_bytes());
        body.extend_from_slice(&e.segment_len.to_le_bytes());
        body.extend_from_slice(&e.records.to_le_bytes());
        body.extend_from_slice(&(e.label.len() as u16).to_le_bytes());
        body.extend_from_slice(e.label.as_bytes());
    }
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
}

/// Parse and CRC-verify a footer spanning `bytes[offset..offset + len]`.
pub fn read_footer(bytes: &[u8], offset: usize, len: usize) -> Result<Vec<IndexEntry>, FrameError> {
    let footer = bytes
        .get(offset..offset + len)
        .ok_or(FrameError::Truncated)?;
    if footer.len() < 4 + 4 + 4 || &footer[..4] != FOOTER_MAGIC {
        return Err(FrameError::Corrupt("footer magic"));
    }
    let body = &footer[4..footer.len() - 4];
    let stored_crc = read_u32(footer, footer.len() - 4)?;
    if crc32(body) != stored_crc {
        return Err(FrameError::Corrupt("footer CRC"));
    }
    let count = read_u32(body, 0)? as usize;
    let mut entries = Vec::with_capacity(count);
    let mut at = 4usize;
    for _ in 0..count {
        let site_index = read_u32(body, at)?;
        let offset = read_u64(body, at + 4)?;
        let segment_len = read_u32(body, at + 12)?;
        let records = read_u32(body, at + 16)?;
        let label_len = read_u16(body, at + 20)? as usize;
        let label_bytes = body
            .get(at + 22..at + 22 + label_len)
            .ok_or(FrameError::Truncated)?;
        let label = std::str::from_utf8(label_bytes)
            .map_err(|_| FrameError::Corrupt("footer label"))?
            .to_string();
        entries.push(IndexEntry {
            site_index,
            offset,
            segment_len,
            records,
            label,
        });
        at += 22 + label_len;
    }
    if at != body.len() {
        return Err(FrameError::Corrupt("footer length"));
    }
    Ok(entries)
}

/// Append the fixed-size trailer pointing at a footer already in `out`.
pub fn write_trailer(out: &mut Vec<u8>, footer_offset: u64, footer_len: u32) {
    out.extend_from_slice(&footer_offset.to_le_bytes());
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Locate the footer via the trailer: `(footer_offset, footer_len)`.
pub fn read_trailer(bytes: &[u8]) -> Result<(u64, u32), FrameError> {
    if bytes.len() < TRAILER_LEN {
        return Err(FrameError::Truncated);
    }
    let at = bytes.len() - TRAILER_LEN;
    if &bytes[bytes.len() - 8..] != TRAILER_MAGIC {
        return Err(FrameError::Corrupt("trailer magic"));
    }
    Ok((read_u64(bytes, at)?, read_u32(bytes, at + 8)?))
}

/// Byte offset of the first segment's payload, parsed from the framing —
/// used by tooling (e.g. `examples/corrupt_store.rs`) that wants to damage
/// a segment *body* specifically.
pub fn first_payload_offset(bytes: &[u8]) -> Result<usize, FrameError> {
    if bytes.len() < FILE_MAGIC.len() || &bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(FrameError::Corrupt("file magic"));
    }
    let header = read_segment_header(bytes, FILE_MAGIC.len())?;
    Ok(FILE_MAGIC.len() + header.encoded_len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> Vec<u8> {
        let encoded = encode_record(&vec!["alpha".to_string(), "beta".to_string()]);
        let mut out = Vec::new();
        write_segment(
            &mut out,
            SegmentKind::Site,
            7,
            2,
            encoded.raw_len,
            "shop0001.com",
            &encoded.payload,
        );
        out
    }

    #[test]
    fn segment_round_trips() {
        let bytes = sample_segment();
        let header = read_segment_header(&bytes, 0).unwrap();
        assert_eq!(header.kind, SegmentKind::Site);
        assert_eq!(header.site_index, 7);
        assert_eq!(header.records, 2);
        assert_eq!(header.label, "shop0001.com");
        assert_eq!(header.segment_len(), bytes.len());
        let payload = verify_payload_at(&bytes, 0, &header).unwrap();
        let back: Vec<String> = decode_record(payload, header.raw_len).unwrap();
        assert_eq!(back, vec!["alpha", "beta"]);
    }

    /// Headers whose `raw_len` lies — huge, zero, or short — still carry a
    /// valid CRC (a crafted archive can set any value), and must decode to
    /// what the honest header does: the size is a capacity hint only.
    #[test]
    fn a_dishonest_raw_len_never_changes_what_decodes() {
        let crawl = crate::fast::tests::exhaustive_crawl();
        let site = encode_site(&crawl);
        let meta = encode_record(&vec!["alpha".to_string(), "beta".to_string()]);
        // A segment framed with `raw_len`, and its verified payload.
        let frame = |kind, raw_len, payload: &[u8]| {
            let mut bytes = Vec::new();
            write_segment(&mut bytes, kind, 3, 2, raw_len, "shop0001.com", payload);
            let header = read_segment_header(&bytes, 0).expect("the CRC covers any raw_len");
            assert_eq!(header.raw_len, raw_len);
            verify_payload_at(&bytes, 0, &header).unwrap().to_vec()
        };
        let decode_site_with = |raw_len| {
            let payload = frame(SegmentKind::Site, raw_len, &site.payload);
            serde_json::to_string(&decode_site(&payload, raw_len).unwrap()).unwrap()
        };
        let decode_meta_with = |raw_len| {
            let payload = frame(SegmentKind::Meta, raw_len, &meta.payload);
            decode_record::<Vec<String>>(&payload, raw_len).unwrap()
        };
        let honest_site = decode_site_with(site.raw_len);
        assert_eq!(honest_site, serde_json::to_string(&crawl).unwrap());
        let honest_meta = decode_meta_with(meta.raw_len);
        for raw_len in [u32::MAX, 0, 1, site.raw_len / 2, site.raw_len - 1] {
            assert_eq!(
                decode_site_with(raw_len),
                honest_site,
                "site raw_len {raw_len}"
            );
            assert_eq!(
                decode_meta_with(raw_len),
                honest_meta,
                "meta raw_len {raw_len}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_payload_is_detected() {
        let bytes = sample_segment();
        let header = read_segment_header(&bytes, 0).unwrap();
        let payload_start = header.encoded_len();
        for at in payload_start..bytes.len() {
            for bit in 0..8 {
                let mut mangled = bytes.clone();
                mangled[at] ^= 1 << bit;
                let header = read_segment_header(&mangled, 0).unwrap();
                assert_eq!(
                    verify_payload_at(&mangled, 0, &header),
                    Err(FrameError::Corrupt("segment payload CRC")),
                    "flip at byte {at} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_header_is_detected() {
        let bytes = sample_segment();
        let header = read_segment_header(&bytes, 0).unwrap();
        for at in 0..header.encoded_len() {
            for bit in 0..8 {
                let mut mangled = bytes.clone();
                mangled[at] ^= 1 << bit;
                assert!(
                    read_segment_header(&mangled, 0).is_err(),
                    "flip at byte {at} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_segment_reads_as_truncated() {
        let bytes = sample_segment();
        let header = read_segment_header(&bytes, 0).unwrap();
        let cut = &bytes[..bytes.len() - 1];
        assert_eq!(
            verify_payload_at(cut, 0, &header),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            read_segment_header(&bytes[..10], 0),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn footer_round_trips_and_rejects_damage() {
        let entries = vec![
            IndexEntry {
                site_index: 0,
                offset: 8,
                segment_len: 120,
                records: 14,
                label: "a.com".into(),
            },
            IndexEntry {
                site_index: 1,
                offset: 128,
                segment_len: 90,
                records: 0,
                label: "b.com".into(),
            },
        ];
        let mut out = Vec::new();
        write_footer(&mut out, &entries);
        assert_eq!(read_footer(&out, 0, out.len()).unwrap(), entries);
        let mut mangled = out.clone();
        mangled[10] ^= 0x40;
        assert!(read_footer(&mangled, 0, mangled.len()).is_err());
    }

    #[test]
    fn canonicalize_keeps_the_highest_offset_entry_per_site() {
        let entry = |site_index: u32, offset: u64, label: &str| IndexEntry {
            site_index,
            offset,
            segment_len: 64,
            records: 1,
            label: label.into(),
        };
        let mut entries = vec![
            entry(2, 300, "c.com"),
            entry(0, 8, "a.com"),
            entry(1, 100, "b.com-old"),
            entry(1, 500, "b.com-new"),
            entry(1, 200, "b.com-mid"),
        ];
        canonicalize_index(&mut entries);
        assert_eq!(
            entries,
            vec![
                entry(0, 8, "a.com"),
                entry(1, 500, "b.com-new"),
                entry(2, 300, "c.com"),
            ]
        );
    }

    #[test]
    fn trailer_round_trips() {
        let mut out = Vec::new();
        write_trailer(&mut out, 0x1234, 99);
        assert_eq!(out.len(), TRAILER_LEN);
        assert_eq!(read_trailer(&out).unwrap(), (0x1234, 99));
        assert!(read_trailer(&out[..TRAILER_LEN - 1]).is_err());
    }
}
