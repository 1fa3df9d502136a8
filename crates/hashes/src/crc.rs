//! CRC-16/ARC and CRC-32 (IEEE 802.3), both reflected, table-driven.
//!
//! CRC-32 is the framing checksum of every `pii-store` segment, so it sits
//! on the replay hot path. [`Crc32::update`] therefore runs a slice-by-8
//! kernel: eight derived tables fold eight input bytes into the state per
//! step instead of one, which removes the per-byte loop-carried dependency
//! on the table lookup (about 4x the byte loop's throughput). The byte loop
//! finishes the tail of each update and is the kernel's test reference.

use crate::Hasher;
use std::sync::OnceLock;

fn crc32_table() -> &'static [u32; 256] {
    static T: OnceLock<[u32; 256]> = OnceLock::new();
    T.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    })
}

/// The eight slice-by-8 tables. `t[0]` is the classic byte table; `t[k]`
/// advances a byte's contribution `k` extra zero-byte steps, so eight
/// lookups — one per input byte, XORed together — advance the CRC state by
/// a whole 8-byte chunk at once.
fn crc32_table8() -> &'static [[u32; 256]; 8] {
    static T: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    T.get_or_init(|| {
        let base = crc32_table();
        let mut t = [[0u32; 256]; 8];
        t[0] = *base;
        for i in 0..256 {
            let mut c = base[i];
            for row in t.iter_mut().skip(1) {
                c = base[(c & 0xff) as usize] ^ (c >> 8);
                row[i] = c;
            }
        }
        t
    })
}

fn crc16_table() -> &'static [u16; 256] {
    static T: OnceLock<[u16; 256]> = OnceLock::new();
    T.get_or_init(|| {
        let mut t = [0u16; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u16;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xa001 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    })
}

/// Streaming CRC-32 (IEEE). Digest is the big-endian checksum so the hex
/// rendering matches the conventional printed form.
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// The checksum value accumulated so far.
    pub fn value(&self) -> u32 {
        !self.state
    }

    /// Byte-at-a-time update: the tail of [`Hasher::update`], and the
    /// reference its slice-by-8 kernel is tested against.
    fn update_bytes(&mut self, data: &[u8]) {
        let t = crc32_table();
        for &b in data {
            self.state = t[((self.state ^ b as u32) & 0xff) as usize] ^ (self.state >> 8);
        }
    }
}

impl Hasher for Crc32 {
    /// Slice-by-8 kernel: fold whole 8-byte chunks through the derived
    /// tables, then finish the tail with the byte loop. Bit-for-bit
    /// identical to the byte loop alone for every input and chunking.
    fn update(&mut self, data: &[u8]) {
        let t = crc32_table8();
        let mut chunks = data.chunks_exact(8);
        let mut state = self.state;
        for c in chunks.by_ref() {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = state;
        self.update_bytes(chunks.remainder());
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        self.value().to_be_bytes().to_vec()
    }
    fn output_len(&self) -> usize {
        4
    }
}

/// Streaming CRC-16/ARC.
pub struct Crc16 {
    state: u16,
}

impl Default for Crc16 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc16 {
    pub fn new() -> Self {
        Crc16 { state: 0 }
    }

    /// The checksum value accumulated so far.
    pub fn value(&self) -> u16 {
        self.state
    }
}

impl Hasher for Crc16 {
    fn update(&mut self, data: &[u8]) {
        let t = crc16_table();
        for &b in data {
            self.state = t[((self.state ^ b as u16) & 0xff) as usize] ^ (self.state >> 8);
        }
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        self.value().to_be_bytes().to_vec()
    }
    fn output_len(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hasher;

    #[test]
    fn crc32_check_value() {
        let mut h = Crc32::new();
        Hasher::update(&mut h, b"123456789");
        assert_eq!(h.value(), 0xcbf43926);
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(Crc32::new().value(), 0);
    }

    #[test]
    fn crc16_arc_check_value() {
        let mut h = Crc16::new();
        Hasher::update(&mut h, b"123456789");
        assert_eq!(h.value(), 0xbb3d);
    }

    #[test]
    fn crc32_streams() {
        let mut a = Crc32::new();
        Hasher::update(&mut a, b"12345");
        Hasher::update(&mut a, b"6789");
        assert_eq!(a.value(), 0xcbf43926);
    }

    #[test]
    fn digest_bytes_are_big_endian() {
        let mut h = Box::new(Crc32::new());
        h.update(b"123456789");
        assert_eq!(h.finalize(), vec![0xcb, 0xf4, 0x39, 0x26]);
    }

    /// The slice-by-8 kernel equals the scalar reference on every length
    /// 0..=257 (covers the empty input, pure-tail inputs shorter than one
    /// chunk, exact chunk multiples, and chunk+tail mixes) and on updates
    /// split at every offset (state handoff between kernel and tail).
    #[test]
    fn slice8_equals_scalar_across_lengths_and_splits() {
        let data: Vec<u8> = (0..258u32)
            .map(|i| (i.wrapping_mul(151) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let mut fast = Crc32::new();
            Hasher::update(&mut fast, &data[..len]);
            let mut slow = Crc32::new();
            slow.update_bytes(&data[..len]);
            assert_eq!(fast.value(), slow.value(), "len {len}");
        }
        for split in 0..=64usize {
            let mut fast = Crc32::new();
            Hasher::update(&mut fast, &data[..split]);
            Hasher::update(&mut fast, &data[split..]);
            let mut slow = Crc32::new();
            slow.update_bytes(&data);
            assert_eq!(fast.value(), slow.value(), "split {split}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The slice-by-8 kernel equals the byte loop on arbitrary binary
        /// input under arbitrary chunking.
        #[test]
        fn crc32_slice8_equals_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            let split = split.min(data.len());
            let mut scalar = Crc32::new();
            scalar.update_bytes(&data);
            let mut sliced = Crc32::new();
            Hasher::update(&mut sliced, &data[..split]);
            Hasher::update(&mut sliced, &data[split..]);
            prop_assert_eq!(sliced.value(), scalar.value());
        }
    }
}
