//! # pii-encodings
//!
//! From-scratch implementations of every encoding the paper's appendix lists
//! as a supported obfuscation for leaked PII:
//!
//! > base16, base32, base32hex, base58, base64, gz, bzip2, deflate; rot13
//!
//! plus percent-encoding (used by URL/query-string handling in `pii-net`).
//!
//! As with `pii-hashes`, both the simulated tracker tags and the detector's
//! candidate-token generator share these implementations. The text codecs
//! follow their RFCs exactly (RFC 4648 for base16/32/64, the Bitcoin
//! alphabet for base58); DEFLATE emits one dynamic- or fixed-Huffman block,
//! whichever is smaller (stored blocks when neither beats the input), and
//! inflates all three block types per RFC 1951; gzip adds the RFC 1952
//! framing with a real CRC-32. The bzip2 codec keeps the reference pipeline
//! (RLE → Burrows-Wheeler → move-to-front → RLE2 → Huffman) in a simplified
//! but lossless single-table container — see DESIGN.md for the substitution
//! note.
//!
//! ```
//! use pii_encodings::{EncodingKind, encode_to_string};
//! assert_eq!(encode_to_string(EncodingKind::Base64, b"foo@mydom.com"),
//!            "Zm9vQG15ZG9tLmNvbQ==");
//! ```

#![forbid(unsafe_code)]

pub mod base32;
pub mod base58;
pub mod base64;
pub mod bzip2;
pub mod deflate;
pub mod gzip;
pub mod percent;
pub mod rot13;

pub use pii_hashes::hex as base16;

/// Error type shared by all decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A byte outside the codec's alphabet (offset included).
    InvalidByte(usize),
    /// Input length is impossible for the codec.
    InvalidLength,
    /// Padding is malformed or in the wrong place.
    InvalidPadding,
    /// Compressed stream is structurally corrupt.
    Corrupt(&'static str),
    /// Frame checksum did not match the decompressed payload.
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::InvalidByte(off) => write!(f, "invalid byte at offset {off}"),
            DecodeError::InvalidLength => write!(f, "invalid input length"),
            DecodeError::InvalidPadding => write!(f, "invalid padding"),
            DecodeError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Every encoding the paper's appendix supports, as a value, mirroring
/// [`pii_hashes::HashAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodingKind {
    Base16,
    Base32,
    Base32Hex,
    Base58,
    Base64,
    /// URL-safe base64 without padding — what trackers actually put in query
    /// strings (e.g. Klaviyo's and Zendesk's `data` parameter).
    Base64Url,
    Rot13,
    Deflate,
    Gzip,
    Bzip2,
}

impl EncodingKind {
    /// All supported encodings, in report order.
    pub const ALL: [EncodingKind; 10] = [
        EncodingKind::Base16,
        EncodingKind::Base32,
        EncodingKind::Base32Hex,
        EncodingKind::Base58,
        EncodingKind::Base64,
        EncodingKind::Base64Url,
        EncodingKind::Rot13,
        EncodingKind::Deflate,
        EncodingKind::Gzip,
        EncodingKind::Bzip2,
    ];

    /// The text encodings, whose output is printable ASCII and can appear
    /// verbatim inside a URL parameter or cookie value.
    pub const TEXTUAL: [EncodingKind; 7] = [
        EncodingKind::Base16,
        EncodingKind::Base32,
        EncodingKind::Base32Hex,
        EncodingKind::Base58,
        EncodingKind::Base64,
        EncodingKind::Base64Url,
        EncodingKind::Rot13,
    ];

    /// The compressors, whose binary output appears percent- or
    /// base64-wrapped in practice.
    pub const COMPRESSION: [EncodingKind; 3] = [
        EncodingKind::Deflate,
        EncodingKind::Gzip,
        EncodingKind::Bzip2,
    ];

    /// Stable lowercase identifier (matches the paper's appendix spelling
    /// where it names the codec).
    pub fn name(self) -> &'static str {
        match self {
            EncodingKind::Base16 => "base16",
            EncodingKind::Base32 => "base32",
            EncodingKind::Base32Hex => "base32hex",
            EncodingKind::Base58 => "base58",
            EncodingKind::Base64 => "base64",
            EncodingKind::Base64Url => "base64url",
            EncodingKind::Rot13 => "rot13",
            EncodingKind::Deflate => "deflate",
            EncodingKind::Gzip => "gz",
            EncodingKind::Bzip2 => "bzip2",
        }
    }

    /// Parse the identifier produced by [`EncodingKind::name`].
    pub fn from_name(name: &str) -> Option<EncodingKind> {
        EncodingKind::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// Encode `data` with this codec.
    pub fn encode(self, data: &[u8]) -> Vec<u8> {
        match self {
            EncodingKind::Base16 => base16::encode(data).into_bytes(),
            EncodingKind::Base32 => base32::encode(data).into_bytes(),
            EncodingKind::Base32Hex => base32::encode_hex_alphabet(data).into_bytes(),
            EncodingKind::Base58 => base58::encode(data).into_bytes(),
            EncodingKind::Base64 => base64::encode(data).into_bytes(),
            EncodingKind::Base64Url => base64::encode_url(data).into_bytes(),
            EncodingKind::Rot13 => rot13::apply(data),
            EncodingKind::Deflate => deflate::compress(data),
            EncodingKind::Gzip => gzip::compress(data),
            EncodingKind::Bzip2 => bzip2::compress(data),
        }
    }

    /// Decode data produced by [`EncodingKind::encode`].
    pub fn decode(self, data: &[u8]) -> Result<Vec<u8>, DecodeError> {
        match self {
            EncodingKind::Base16 => {
                let s = std::str::from_utf8(data).map_err(|_| DecodeError::InvalidByte(0))?;
                base16::decode(s).ok_or(DecodeError::InvalidLength)
            }
            EncodingKind::Base32 => base32::decode(data),
            EncodingKind::Base32Hex => base32::decode_hex_alphabet(data),
            EncodingKind::Base58 => base58::decode(data),
            EncodingKind::Base64 => base64::decode(data),
            EncodingKind::Base64Url => base64::decode_url(data),
            EncodingKind::Rot13 => Ok(rot13::apply(data)),
            EncodingKind::Deflate => deflate::decompress(data),
            EncodingKind::Gzip => gzip::decompress(data),
            EncodingKind::Bzip2 => bzip2::decompress(data),
        }
    }
}

/// Encode and render as a string (lossy only for the compressors, whose
/// output is binary; textual codecs always produce ASCII).
pub fn encode_to_string(kind: EncodingKind, data: &[u8]) -> String {
    String::from_utf8_lossy(&kind.encode(data)).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in EncodingKind::ALL {
            assert_eq!(EncodingKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EncodingKind::from_name("base99"), None);
    }

    #[test]
    fn every_codec_roundtrips() {
        let samples: [&[u8]; 6] = [
            b"",
            b"f",
            b"foo@mydom.com",
            b"Alice Doe, 1-2-3 Chiyoda, Tokyo 100-0001",
            &[0u8, 255, 1, 254, 2, 253],
            &[0x80; 300],
        ];
        for kind in EncodingKind::ALL {
            for sample in samples {
                let encoded = kind.encode(sample);
                let decoded = kind.decode(&encoded).unwrap_or_else(|e| {
                    panic!("{} failed to decode its own output: {e}", kind.name())
                });
                assert_eq!(decoded, sample, "{} roundtrip", kind.name());
            }
        }
    }

    #[test]
    fn textual_codecs_emit_printable_ascii() {
        let data = b"foo@mydom.com\xff\x00";
        for kind in EncodingKind::TEXTUAL {
            // rot13 passes non-alpha bytes through, so restrict it to text.
            let input: &[u8] = if kind == EncodingKind::Rot13 {
                b"foo@mydom.com"
            } else {
                data
            };
            let out = kind.encode(input);
            assert!(
                out.iter().all(|b| b.is_ascii() && !b.is_ascii_control()),
                "{} emitted non-printable bytes",
                kind.name()
            );
        }
    }

    #[test]
    fn decoders_reject_garbage() {
        for kind in [
            EncodingKind::Base32,
            EncodingKind::Base58,
            EncodingKind::Base64,
            EncodingKind::Gzip,
            EncodingKind::Bzip2,
        ] {
            assert!(
                kind.decode(&[0xfe, 0xff, 0x00, 0x01]).is_err(),
                "{} accepted garbage",
                kind.name()
            );
        }
    }
}
