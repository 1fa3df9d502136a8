//! # pii-hashes
//!
//! From-scratch implementations of every hash function and checksum that the
//! paper's appendix lists as a supported obfuscation for leaked PII:
//!
//! > md2, md4, md5, sha1, sha224, sha256, sha384, sha512, crc16, crc32,
//! > sha3_224, sha3_256, sha3_384, sha3_512, ripemd_128, ripemd_160,
//! > ripemd_256, ripemd_320, whirlpool, snefru128, snefru256, adler32, blake2b
//!
//! Both sides of the reproduction use this crate: the simulated tracker tags
//! obfuscate PII with these functions before exfiltrating it, and the
//! detector pre-computes its candidate token set with the same functions
//! (see `pii-core::tokens`). The well-known algorithms are validated against
//! published test vectors; Snefru uses deterministic synthetic S-boxes (the
//! reference tables are not available offline), which is documented in
//! DESIGN.md and does not affect the measurement pipeline because the
//! obfuscator and the detector share the implementation.
//!
//! ## Design
//!
//! Every algorithm implements the streaming [`Hasher`] trait; the
//! [`HashAlgorithm`] enum provides dynamic dispatch plus one-shot helpers so
//! higher layers can iterate over "all supported hashes" when building
//! candidate sets:
//!
//! ```
//! use pii_hashes::{HashAlgorithm, hex_digest};
//! let d = hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com");
//! assert_eq!(d.len(), 64);
//! ```

#![forbid(unsafe_code)]

pub mod adler;
pub mod blake2b;
pub mod crc;
pub mod hex;
pub mod md2;
pub mod md4;
pub mod md5;
pub mod ripemd;
pub mod sha1;
pub mod sha2;
pub mod sha3;
pub mod snefru;
pub mod whirlpool;

/// A streaming hash computation.
///
/// Mirrors the shape of the `digest` ecosystem crates without depending on
/// them: call [`Hasher::update`] any number of times, then
/// [`Hasher::finalize`] exactly once.
pub trait Hasher {
    /// Absorb `data` into the internal state.
    fn update(&mut self, data: &[u8]);
    /// Consume the state and return the digest bytes.
    fn finalize(self: Box<Self>) -> Vec<u8>;
    /// Digest length in bytes.
    fn output_len(&self) -> usize;
}

/// Every hash/checksum the paper's appendix supports, as a value.
///
/// The order matters only cosmetically (reports list hashes in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashAlgorithm {
    Md2,
    Md4,
    Md5,
    Sha1,
    Sha224,
    Sha256,
    Sha384,
    Sha512,
    Sha3_224,
    Sha3_256,
    Sha3_384,
    Sha3_512,
    Ripemd128,
    Ripemd160,
    Ripemd256,
    Ripemd320,
    Whirlpool,
    Snefru128,
    Snefru256,
    Blake2b,
    Crc16,
    Crc32,
    Adler32,
}

impl HashAlgorithm {
    /// All supported algorithms, in report order.
    pub const ALL: [HashAlgorithm; 23] = [
        HashAlgorithm::Md2,
        HashAlgorithm::Md4,
        HashAlgorithm::Md5,
        HashAlgorithm::Sha1,
        HashAlgorithm::Sha224,
        HashAlgorithm::Sha256,
        HashAlgorithm::Sha384,
        HashAlgorithm::Sha512,
        HashAlgorithm::Sha3_224,
        HashAlgorithm::Sha3_256,
        HashAlgorithm::Sha3_384,
        HashAlgorithm::Sha3_512,
        HashAlgorithm::Ripemd128,
        HashAlgorithm::Ripemd160,
        HashAlgorithm::Ripemd256,
        HashAlgorithm::Ripemd320,
        HashAlgorithm::Whirlpool,
        HashAlgorithm::Snefru128,
        HashAlgorithm::Snefru256,
        HashAlgorithm::Blake2b,
        HashAlgorithm::Crc16,
        HashAlgorithm::Crc32,
        HashAlgorithm::Adler32,
    ];

    /// The cryptographic hashes (excludes CRC/Adler checksums), which are the
    /// ones trackers actually use per Table 2 of the paper.
    pub const CRYPTOGRAPHIC: [HashAlgorithm; 20] = [
        HashAlgorithm::Md2,
        HashAlgorithm::Md4,
        HashAlgorithm::Md5,
        HashAlgorithm::Sha1,
        HashAlgorithm::Sha224,
        HashAlgorithm::Sha256,
        HashAlgorithm::Sha384,
        HashAlgorithm::Sha512,
        HashAlgorithm::Sha3_224,
        HashAlgorithm::Sha3_256,
        HashAlgorithm::Sha3_384,
        HashAlgorithm::Sha3_512,
        HashAlgorithm::Ripemd128,
        HashAlgorithm::Ripemd160,
        HashAlgorithm::Ripemd256,
        HashAlgorithm::Ripemd320,
        HashAlgorithm::Whirlpool,
        HashAlgorithm::Snefru128,
        HashAlgorithm::Snefru256,
        HashAlgorithm::Blake2b,
    ];

    /// Stable lowercase identifier used in reports, dataset snapshots, and
    /// tracker configurations (matches the paper's appendix spelling).
    pub fn name(self) -> &'static str {
        match self {
            HashAlgorithm::Md2 => "md2",
            HashAlgorithm::Md4 => "md4",
            HashAlgorithm::Md5 => "md5",
            HashAlgorithm::Sha1 => "sha1",
            HashAlgorithm::Sha224 => "sha224",
            HashAlgorithm::Sha256 => "sha256",
            HashAlgorithm::Sha384 => "sha384",
            HashAlgorithm::Sha512 => "sha512",
            HashAlgorithm::Sha3_224 => "sha3_224",
            HashAlgorithm::Sha3_256 => "sha3_256",
            HashAlgorithm::Sha3_384 => "sha3_384",
            HashAlgorithm::Sha3_512 => "sha3_512",
            HashAlgorithm::Ripemd128 => "ripemd_128",
            HashAlgorithm::Ripemd160 => "ripemd_160",
            HashAlgorithm::Ripemd256 => "ripemd_256",
            HashAlgorithm::Ripemd320 => "ripemd_320",
            HashAlgorithm::Whirlpool => "whirlpool",
            HashAlgorithm::Snefru128 => "snefru128",
            HashAlgorithm::Snefru256 => "snefru256",
            HashAlgorithm::Blake2b => "blake2b",
            HashAlgorithm::Crc16 => "crc16",
            HashAlgorithm::Crc32 => "crc32",
            HashAlgorithm::Adler32 => "adler32",
        }
    }

    /// Parse the identifier produced by [`HashAlgorithm::name`].
    pub fn from_name(name: &str) -> Option<HashAlgorithm> {
        HashAlgorithm::ALL
            .iter()
            .copied()
            .find(|a| a.name() == name)
    }

    /// Digest length in bytes.
    pub fn output_len(self) -> usize {
        match self {
            HashAlgorithm::Md2 | HashAlgorithm::Md4 | HashAlgorithm::Md5 => 16,
            HashAlgorithm::Sha1 => 20,
            HashAlgorithm::Sha224 | HashAlgorithm::Sha3_224 => 28,
            HashAlgorithm::Sha256 | HashAlgorithm::Sha3_256 => 32,
            HashAlgorithm::Sha384 | HashAlgorithm::Sha3_384 => 48,
            HashAlgorithm::Sha512 | HashAlgorithm::Sha3_512 => 64,
            HashAlgorithm::Ripemd128 => 16,
            HashAlgorithm::Ripemd160 => 20,
            HashAlgorithm::Ripemd256 => 32,
            HashAlgorithm::Ripemd320 => 40,
            HashAlgorithm::Whirlpool => 64,
            HashAlgorithm::Snefru128 => 16,
            HashAlgorithm::Snefru256 => 32,
            HashAlgorithm::Blake2b => 64,
            HashAlgorithm::Crc16 => 2,
            HashAlgorithm::Crc32 | HashAlgorithm::Adler32 => 4,
        }
    }

    /// Create a fresh streaming hasher for this algorithm.
    pub fn hasher(self) -> Box<dyn Hasher> {
        match self {
            HashAlgorithm::Md2 => Box::new(md2::Md2::new()),
            HashAlgorithm::Md4 => Box::new(md4::Md4::new()),
            HashAlgorithm::Md5 => Box::new(md5::Md5::new()),
            HashAlgorithm::Sha1 => Box::new(sha1::Sha1::new()),
            HashAlgorithm::Sha224 => Box::new(sha2::Sha256Core::new_224()),
            HashAlgorithm::Sha256 => Box::new(sha2::Sha256Core::new_256()),
            HashAlgorithm::Sha384 => Box::new(sha2::Sha512Core::new_384()),
            HashAlgorithm::Sha512 => Box::new(sha2::Sha512Core::new_512()),
            HashAlgorithm::Sha3_224 => Box::new(sha3::Sha3::new(28)),
            HashAlgorithm::Sha3_256 => Box::new(sha3::Sha3::new(32)),
            HashAlgorithm::Sha3_384 => Box::new(sha3::Sha3::new(48)),
            HashAlgorithm::Sha3_512 => Box::new(sha3::Sha3::new(64)),
            HashAlgorithm::Ripemd128 => Box::new(ripemd::Ripemd128::new()),
            HashAlgorithm::Ripemd160 => Box::new(ripemd::Ripemd160::new()),
            HashAlgorithm::Ripemd256 => Box::new(ripemd::Ripemd256::new()),
            HashAlgorithm::Ripemd320 => Box::new(ripemd::Ripemd320::new()),
            HashAlgorithm::Whirlpool => Box::new(whirlpool::Whirlpool::new()),
            HashAlgorithm::Snefru128 => Box::new(snefru::Snefru::new(16)),
            HashAlgorithm::Snefru256 => Box::new(snefru::Snefru::new(32)),
            HashAlgorithm::Blake2b => Box::new(blake2b::Blake2b::new(64)),
            HashAlgorithm::Crc16 => Box::new(crc::Crc16::new()),
            HashAlgorithm::Crc32 => Box::new(crc::Crc32::new()),
            HashAlgorithm::Adler32 => Box::new(adler::Adler32::new()),
        }
    }
}

/// One-shot digest.
pub fn digest(alg: HashAlgorithm, data: &[u8]) -> Vec<u8> {
    let mut h = alg.hasher();
    h.update(data);
    h.finalize()
}

/// One-shot digest rendered as lowercase hex — the form trackers put in URLs
/// (e.g. Facebook's `udff[em]` carries a lowercase-hex SHA-256 of the email).
pub fn hex_digest(alg: HashAlgorithm, data: &[u8]) -> String {
    hex::encode(&digest(alg, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_roundtrip_names() {
        for alg in HashAlgorithm::ALL {
            assert_eq!(HashAlgorithm::from_name(alg.name()), Some(alg));
        }
    }

    #[test]
    fn from_name_rejects_unknown() {
        assert_eq!(HashAlgorithm::from_name("sha4096"), None);
        assert_eq!(HashAlgorithm::from_name(""), None);
        assert_eq!(HashAlgorithm::from_name("SHA256"), None);
    }

    #[test]
    fn digest_lengths_match_declared() {
        for alg in HashAlgorithm::ALL {
            assert_eq!(
                digest(alg, b"probe").len(),
                alg.output_len(),
                "wrong output length for {}",
                alg.name()
            );
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog repeatedly and then some";
        for alg in HashAlgorithm::ALL {
            let oneshot = digest(alg, data);
            let mut h = alg.hasher();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(
                h.finalize(),
                oneshot,
                "streaming mismatch for {}",
                alg.name()
            );
        }
    }

    #[test]
    fn digests_are_deterministic_and_input_sensitive() {
        for alg in HashAlgorithm::ALL {
            let a = digest(alg, b"foo@mydom.com");
            let b = digest(alg, b"foo@mydom.com");
            let c = digest(alg, b"bar@mydom.com");
            assert_eq!(a, b, "{} not deterministic", alg.name());
            assert_ne!(a, c, "{} not input sensitive", alg.name());
        }
    }

    #[test]
    fn hex_digest_is_lowercase_hex() {
        for alg in HashAlgorithm::ALL {
            let h = hex_digest(alg, b"probe");
            assert_eq!(h.len(), alg.output_len() * 2);
            assert!(h
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        }
    }
}
