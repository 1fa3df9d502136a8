//! Snefru-128 / Snefru-256 (Merkle, 1990), 8-pass variant.
//!
//! **Substitution note (see DESIGN.md):** the reference Snefru S-boxes are a
//! set of large random tables distributed with the original implementation
//! and are not available in this offline environment. This module keeps the
//! full Snefru *structure* — 512-bit blocks folded through S-box-driven
//! word mixing with rotations, chained over the message, length-appended —
//! but derives its S-boxes from a documented deterministic generator
//! (SplitMix64 seeded with the module seed below). The detector and the
//! simulated trackers share this implementation, so leak detection behaves
//! identically to a real-vector Snefru; only interoperability with external
//! Snefru digests is out of scope.

use crate::Hasher;
use std::sync::OnceLock;

/// Seed for the synthetic S-box generator. Changing it changes every Snefru
/// digest, which the pinned digests in the tests below would catch.
const SBOX_SEED: u64 = 0x534e_4546_5255_2138; // "SNEFRU!8"

const PASSES: usize = 8;
/// Words per block buffer (512 bits).
const BLOCK_WORDS: usize = 16;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Two S-boxes of 256 32-bit words per pass pair, as in the reference
/// layout (boxes are indexed by pass/2 and byte position parity).
fn sboxes() -> &'static Vec<[u32; 256]> {
    static S: OnceLock<Vec<[u32; 256]>> = OnceLock::new();
    S.get_or_init(|| {
        let mut rng = SBOX_SEED;
        (0..PASSES)
            .map(|_| {
                let mut table = [0u32; 256];
                for entry in table.iter_mut() {
                    *entry = splitmix64(&mut rng) as u32;
                }
                table
            })
            .collect()
    })
}

/// Rotation schedule inside each pass (from the reference implementation).
const SHIFTS: [u32; 4] = [16, 8, 16, 24];

/// Largest chaining value (Snefru-256), in words.
const MAX_OUT_WORDS: usize = 8;
/// Most message bytes one block carries (Snefru-128).
const MAX_DATA_BYTES: usize = (BLOCK_WORDS - 4) * 4;

/// The Snefru 512-bit one-way function: mixes the 16-word buffer in place
/// and returns the first `out_words` words XORed with the original input tail
/// per the reference "output = input XOR last words reversed" rule (the
/// words past `out_words` are zero).
#[allow(clippy::needless_range_loop)] // word indices mirror the reference implementation
fn snefru_512(block: &mut [u32; BLOCK_WORDS], out_words: usize) -> [u32; MAX_OUT_WORDS] {
    let original = *block;
    let boxes = sboxes();
    for pass in 0..PASSES {
        for shift in SHIFTS {
            for i in 0..BLOCK_WORDS {
                let sbox_entry = boxes[pass][(block[i] & 0xff) as usize];
                let next = (i + 1) % BLOCK_WORDS;
                let prev = (i + BLOCK_WORDS - 1) % BLOCK_WORDS;
                block[next] ^= sbox_entry;
                block[prev] ^= sbox_entry;
            }
            for word in block.iter_mut() {
                *word = word.rotate_right(shift);
            }
        }
    }
    let mut out = [0u32; MAX_OUT_WORDS];
    for i in 0..out_words {
        out[i] = original[i] ^ block[BLOCK_WORDS - 1 - i];
    }
    out
}

/// Streaming Snefru state for 128- or 256-bit output.
pub struct Snefru {
    /// Chaining value; the first `out_words` words are live.
    h: [u32; MAX_OUT_WORDS],
    /// Bytes awaiting a full block; the first `buf_len` are live.
    buf: [u8; MAX_DATA_BYTES],
    buf_len: usize,
    total_len: u64,
    out_words: usize,
}

impl Snefru {
    /// `out_len` is 16 (Snefru-128) or 32 (Snefru-256) bytes.
    pub fn new(out_len: usize) -> Self {
        assert!(
            out_len == 16 || out_len == 32,
            "snefru output must be 16 or 32 bytes"
        );
        let out_words = out_len / 4;
        // Domain-separate the two output widths: an all-zero IV would make
        // Snefru-128 a prefix of Snefru-256 on zero-padded final blocks.
        let mut h = [0u32; MAX_OUT_WORDS];
        for (i, word) in h.iter_mut().take(out_words).enumerate() {
            *word = i as u32 ^ (out_words as u32) << 8;
        }
        Snefru {
            h,
            buf: [0; MAX_DATA_BYTES],
            buf_len: 0,
            total_len: 0,
            out_words,
        }
    }

    /// Data bytes consumed per block: the block buffer holds the chaining
    /// value followed by message bytes.
    fn data_bytes_per_block(&self) -> usize {
        (BLOCK_WORDS - self.out_words) * 4
    }

    fn compress_chunk(&mut self, chunk: &[u8]) {
        debug_assert_eq!(chunk.len(), self.data_bytes_per_block());
        let mut block = [0u32; BLOCK_WORDS];
        block[..self.out_words].copy_from_slice(&self.h[..self.out_words]);
        for (i, word_bytes) in chunk.chunks_exact(4).enumerate() {
            block[self.out_words + i] = u32::from_be_bytes(word_bytes.try_into().unwrap());
        }
        self.h = snefru_512(&mut block, self.out_words);
    }

    fn update_bytes(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let n = self.data_bytes_per_block();
        if self.buf_len > 0 {
            let take = (n - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == n {
                let block = self.buf;
                self.compress_chunk(&block[..n]);
                self.buf_len = 0;
            }
        }
        while data.len() >= n {
            self.compress_chunk(&data[..n]);
            data = &data[n..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize_bytes(mut self) -> Vec<u8> {
        let n = self.data_bytes_per_block();
        let bit_len = self.total_len.wrapping_mul(8);
        // Zero-pad the tail block (if any), then a final block carrying the
        // 64-bit big-endian bit length in its last words, as the reference
        // implementation does.
        if self.buf_len > 0 {
            self.buf[self.buf_len..n].fill(0);
            let block = self.buf;
            self.compress_chunk(&block[..n]);
        }
        let mut last = [0u8; MAX_DATA_BYTES];
        last[n - 8..n].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_chunk(&last[..n]);
        self.h[..self.out_words]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect()
    }
}

impl Hasher for Snefru {
    fn update(&mut self, data: &[u8]) {
        self.update_bytes(data);
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        (*self).finalize_bytes()
    }
    fn output_len(&self) -> usize {
        self.out_words * 4
    }
}

/// The streaming state this module used before its buffers were fixed
/// arrays (a `Vec` chaining value, a `Vec` buffer drained per block), kept
/// as the oracle for `snefru_equals_reference`. The mixing function is
/// shared: only the buffering changed.
#[cfg(test)]
mod reference {
    use super::{snefru_512, BLOCK_WORDS};

    fn compress_chunk(h: &mut Vec<u32>, chunk: &[u8]) {
        let out_words = h.len();
        let mut block = [0u32; BLOCK_WORDS];
        block[..out_words].copy_from_slice(h);
        for (i, word_bytes) in chunk.chunks_exact(4).enumerate() {
            block[out_words + i] = u32::from_be_bytes(word_bytes.try_into().unwrap());
        }
        *h = snefru_512(&mut block, out_words)[..out_words].to_vec();
    }

    /// One-shot Snefru with `out_len` (16 or 32) output bytes.
    pub fn snefru(out_len: usize, data: &[u8]) -> Vec<u8> {
        let out_words = out_len / 4;
        let mut h: Vec<u32> = (0..out_words as u32)
            .map(|i| i ^ (out_words as u32) << 8)
            .collect();
        let n = (BLOCK_WORDS - out_words) * 4;
        let mut buf = data.to_vec();
        while buf.len() >= n {
            let chunk: Vec<u8> = buf.drain(..n).collect();
            compress_chunk(&mut h, &chunk);
        }
        if !buf.is_empty() {
            buf.resize(n, 0);
            compress_chunk(&mut h, &buf);
        }
        let mut last = vec![0u8; n];
        last[n - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        compress_chunk(&mut h, &last);
        h.iter().flat_map(|w| w.to_be_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn snefru_hex(out_len: usize, data: &[u8]) -> String {
        let mut h = Snefru::new(out_len);
        h.update_bytes(data);
        hex::encode(&h.finalize_bytes())
    }

    #[test]
    fn digests_are_pinned() {
        // Synthetic-S-box digests: these pin the generator seed and the
        // mixing structure so refactors cannot silently change every token
        // in the candidate sets derived from Snefru.
        let empty128 = snefru_hex(16, b"");
        let empty256 = snefru_hex(32, b"");
        assert_eq!(empty128, snefru_hex(16, b""));
        assert_eq!(empty256, snefru_hex(32, b""));
        assert_ne!(empty128, empty256[..32]);
        assert_eq!(empty128.len(), 32);
        assert_eq!(empty256.len(), 64);
        assert_eq!(empty128, "bf16bf8fbda7ef2bca6d248a4666b8f0");
        assert_eq!(
            empty256,
            "4bb4dd251a307ef161e0148c359af54602f0f4928486498ecba82a88a815124c"
        );
        assert_eq!(
            snefru_hex(16, b"foo@mydom.com"),
            "d6c85ef6607d56cd9fee3932846fa264"
        );
        assert_eq!(
            snefru_hex(32, b"foo@mydom.com"),
            "72973f8a0966b4528a984f2dd141a096d1df865d707595bc59b22c99f9b7c36e"
        );
    }

    #[test]
    fn one_bit_difference_avalanches() {
        let a = snefru_hex(32, b"foo@mydom.com");
        let b = snefru_hex(32, b"goo@mydom.com");
        let differing = a
            .as_bytes()
            .iter()
            .zip(b.as_bytes())
            .filter(|(x, y)| x != y)
            .count();
        assert!(differing > 32, "only {differing}/64 hex chars differ");
    }

    #[test]
    fn multiblock_inputs_chain() {
        // 48 data bytes per block for snefru-128; exceed several blocks.
        let data = vec![0xabu8; 200];
        let oneshot = snefru_hex(16, &data);
        let mut h = Snefru::new(16);
        for chunk in data.chunks(31) {
            h.update_bytes(chunk);
        }
        assert_eq!(hex::encode(&h.finalize_bytes()), oneshot);
    }

    use proptest::prelude::*;

    proptest! {
        /// The fixed-array state equals the `Vec` one for both widths on
        /// arbitrary bytes fed in two arbitrary pieces.
        #[test]
        fn snefru_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            split in 0usize..201,
            wide in any::<bool>(),
        ) {
            let out_len = if wide { 32 } else { 16 };
            let split = split.min(data.len());
            let mut h = Snefru::new(out_len);
            h.update_bytes(&data[..split]);
            h.update_bytes(&data[split..]);
            prop_assert_eq!(h.finalize_bytes(), reference::snefru(out_len, &data));
        }
    }

    #[test]
    fn length_extension_of_zero_padding_is_distinguished() {
        // "x" and "x\0" must differ because the length block differs.
        assert_ne!(snefru_hex(16, b"x"), snefru_hex(16, b"x\0"));
    }
}
