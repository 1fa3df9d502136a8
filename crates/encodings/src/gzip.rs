//! gzip framing (RFC 1952) around the DEFLATE codec, with a real CRC-32.

use crate::deflate;
use crate::DecodeError;
use pii_hashes::crc::Crc32;
use pii_hashes::Hasher;

const MAGIC: [u8; 2] = [0x1f, 0x8b];
const CM_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// Compress into a gzip member (no name, no timestamp — deterministic).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(&MAGIC);
    out.push(CM_DEFLATE);
    out.push(0); // FLG
    out.extend_from_slice(&[0; 4]); // MTIME = 0 (deterministic output)
    out.push(0); // XFL
    out.push(255); // OS = unknown
    out.extend_from_slice(&deflate::compress(data));
    let mut crc = Crc32::new();
    Hasher::update(&mut crc, data);
    out.extend_from_slice(&crc.value().to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompress a single gzip member, verifying CRC-32 and ISIZE.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    if data.len() < 18 {
        return Err(DecodeError::Corrupt("gzip member too short"));
    }
    if data[0..2] != MAGIC {
        return Err(DecodeError::Corrupt("bad gzip magic"));
    }
    if data[2] != CM_DEFLATE {
        return Err(DecodeError::Corrupt("unsupported compression method"));
    }
    let flg = data[3];
    let mut pos = 10;
    if flg & FEXTRA != 0 {
        if data.len() < pos + 2 {
            return Err(DecodeError::Corrupt("truncated FEXTRA"));
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
        if data.len() < pos {
            return Err(DecodeError::Corrupt("truncated FEXTRA"));
        }
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            let end = data[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(DecodeError::Corrupt("unterminated string field"))?;
            pos += end + 1;
        }
    }
    if flg & FHCRC != 0 {
        pos += 2;
    }
    let _ = flg & FTEXT; // advisory only
    if data.len() < pos + 8 {
        return Err(DecodeError::Corrupt("gzip member truncated"));
    }
    let body = &data[pos..data.len() - 8];
    let out = deflate::decompress(body)?;
    let trailer = &data[data.len() - 8..];
    let expected_crc = u32::from_le_bytes(trailer[0..4].try_into().unwrap());
    let expected_size = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
    let mut crc = Crc32::new();
    Hasher::update(&mut crc, &out);
    if crc.value() != expected_crc {
        return Err(DecodeError::ChecksumMismatch);
    }
    if out.len() as u32 != expected_size {
        return Err(DecodeError::Corrupt("ISIZE mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for input in [
            b"".as_slice(),
            b"foo@mydom.com",
            b"gzip gzip gzip gzip gzip gzip gzip gzip",
        ] {
            assert_eq!(decompress(&compress(input)).unwrap(), input);
        }
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(compress(b"abc"), compress(b"abc"));
    }

    #[test]
    fn corrupted_crc_detected() {
        let mut data = compress(b"hello world");
        let n = data.len();
        data[n - 6] ^= 0xff;
        assert_eq!(decompress(&data), Err(DecodeError::ChecksumMismatch));
    }

    /// An `XLEN` that runs past the end, followed by `FNAME`, is a decode
    /// error rather than an out-of-range slice.
    #[test]
    fn extra_field_past_the_end_is_rejected() {
        let mut data = compress(b"hello world");
        data[3] = FEXTRA | FNAME | FCOMMENT;
        data[10..12].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            decompress(&data),
            Err(DecodeError::Corrupt("truncated FEXTRA"))
        );
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut data = compress(b"hello world hello world");
        data[12] ^= 0x55;
        assert!(decompress(&data).is_err());
    }

    #[test]
    fn rejects_non_gzip() {
        assert!(decompress(b"not gzip data, clearly!!").is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn skips_optional_name_field() {
        // Hand-build a member with FNAME set.
        let inner = crate::deflate::compress(b"x");
        let mut data = vec![0x1f, 0x8b, 8, FNAME, 0, 0, 0, 0, 0, 255];
        data.extend_from_slice(b"file.txt\0");
        data.extend_from_slice(&inner);
        let mut crc = Crc32::new();
        Hasher::update(&mut crc, b"x");
        data.extend_from_slice(&crc.value().to_le_bytes());
        data.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(decompress(&data).unwrap(), b"x");
    }
}
