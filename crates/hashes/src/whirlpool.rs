//! Whirlpool (ISO/IEC 10118-3), the 512-bit AES-like hash.
//!
//! The 8-bit S-box is derived from the spec's three 4-bit mini-boxes (E,
//! E⁻¹, R) instead of being transcribed, and the MDS layer multiplies by the
//! circulant matrix `cir(1,1,4,1,8,5,2,9)` over GF(2⁸)/0x11D. A round runs
//! on eight 256-entry `u64` tables derived from both at first use; the
//! bytewise matrix round they replace is the test-only `reference`. The
//! published empty-string and `abc` vectors pin the whole construction.

use crate::Hasher;
use std::sync::OnceLock;

/// The exponential mini-box E from the Whirlpool spec.
const E: [u8; 16] = [
    0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3, 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0,
];
/// The pseudo-random mini-box R.
const R: [u8; 16] = [
    0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF, 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0,
];

fn sbox() -> &'static [u8; 256] {
    static S: OnceLock<[u8; 256]> = OnceLock::new();
    S.get_or_init(|| {
        let mut e_inv = [0u8; 16];
        for (i, &v) in E.iter().enumerate() {
            e_inv[v as usize] = i as u8;
        }
        let mut s = [0u8; 256];
        for (x, out) in s.iter_mut().enumerate() {
            let u = (x >> 4) as u8;
            let l = (x & 0xf) as u8;
            let yu = E[u as usize];
            let yl = e_inv[l as usize];
            let r = R[(yu ^ yl) as usize];
            let zu = E[(yu ^ r) as usize];
            let zl = e_inv[(yl ^ r) as usize];
            *out = (zu << 4) | zl;
        }
        s
    })
}

/// Multiply in GF(2⁸) with the Whirlpool reduction polynomial x⁸+x⁴+x³+x²+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1d; // 0x11d without the dropped x^8 bit
        }
        b >>= 1;
    }
    acc
}

/// MDS row coefficients: cir(1, 1, 4, 1, 8, 5, 2, 9).
const C: [u8; 8] = [1, 1, 4, 1, 8, 5, 2, 9];

/// The round tables and the ten round constants, derived at first use.
///
/// `t[k][x]` is the row `S[x]·C` (big-endian, so `C[0]` scales the top
/// byte) rotated right by `k` bytes: it is what input byte `x` in column
/// `k` adds to its output row after γ, π and θ, so one round is eight
/// lookups per row: the C-table layout of ISO/IEC 10118-3 implementations.
/// `rc[r]` is the first row of round `r`'s constant; its other rows are
/// zero.
struct Tables {
    t: [[u64; 256]; 8],
    rc: [u64; 10],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let s = sbox();
        let mut t = [[0u64; 256]; 8];
        for x in 0..256 {
            let row = C.map(|c| gf_mul(s[x], c));
            let row = u64::from_be_bytes(row);
            for (k, table) in t.iter_mut().enumerate() {
                table[x] = row.rotate_right(8 * k as u32);
            }
        }
        let rc = std::array::from_fn(|r| u64::from_be_bytes(std::array::from_fn(|j| s[8 * r + j])));
        Tables { t, rc }
    })
}

/// One round ρ[key] without σ: γ, π and θ over the eight rows. Row `i`'s
/// column `k` byte moves to row `i + k` (π), so output row `r` gathers
/// column `k` of row `r − k`.
fn round(t: &[[u64; 256]; 8], w: &[u64; 8]) -> [u64; 8] {
    std::array::from_fn(|r| {
        let mut acc = 0u64;
        for (k, table) in t.iter().enumerate() {
            let byte = (w[(r + 8 - k) % 8] >> (56 - 8 * k)) as u8;
            acc ^= table[byte as usize];
        }
        acc
    })
}

/// The block cipher W in Miyaguchi–Preneel mode.
fn compress(h: &mut [u64; 8], block: &[u8; 64]) {
    let tables = tables();
    let m: [u64; 8] =
        std::array::from_fn(|i| u64::from_be_bytes(std::array::from_fn(|j| block[8 * i + j])));
    let mut key = *h;
    let mut state: [u64; 8] = std::array::from_fn(|i| m[i] ^ key[i]);
    for &rc in &tables.rc {
        key = round(&tables.t, &key);
        key[0] ^= rc;
        let mixed = round(&tables.t, &state);
        state = std::array::from_fn(|i| mixed[i] ^ key[i]);
    }
    for i in 0..8 {
        h[i] ^= state[i] ^ m[i];
    }
}

/// Streaming Whirlpool state.
pub struct Whirlpool {
    /// Chaining value, eight big-endian rows.
    h: [u64; 8],
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes; the spec allows 2²⁵⁶ bits but no real
    /// input here approaches even 2⁶⁴.
    total_len: u128,
}

impl Default for Whirlpool {
    fn default() -> Self {
        Self::new()
    }
}

impl Whirlpool {
    pub fn new() -> Self {
        Whirlpool {
            h: [0; 8],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn update_bytes(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.h, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().unwrap();
            compress(&mut self.h, &block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize_bytes(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad 0x80, zeros to 32 mod 64, then a 256-bit big-endian length
        // (top 128 bits are always zero here).
        let mut n = self.buf_len;
        self.buf[n] = 0x80;
        n += 1;
        if n > 32 {
            self.buf[n..].fill(0);
            let block = self.buf;
            compress(&mut self.h, &block);
            n = 0;
        }
        self.buf[n..48].fill(0);
        self.buf[48..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress(&mut self.h, &block);
        self.h.iter().flat_map(|row| row.to_be_bytes()).collect()
    }
}

impl Hasher for Whirlpool {
    fn update(&mut self, data: &[u8]) {
        self.update_bytes(data);
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        (*self).finalize_bytes()
    }
    fn output_len(&self) -> usize {
        64
    }
}

/// The bytewise matrix round this module used before the table-driven one,
/// kept as the oracle for `tables_match_the_matrix_round`: γ, π and θ
/// written out over an 8×8 byte matrix, θ multiplying bit by bit.
#[cfg(test)]
mod reference {
    use super::{gf_mul, sbox, C};

    type Matrix = [[u8; 8]; 8];

    fn to_matrix(bytes: &[u8; 64]) -> Matrix {
        let mut m = [[0u8; 8]; 8];
        for i in 0..8 {
            m[i].copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        }
        m
    }

    fn from_matrix(m: &Matrix) -> [u8; 64] {
        let mut out = [0u8; 64];
        for i in 0..8 {
            out[i * 8..i * 8 + 8].copy_from_slice(&m[i]);
        }
        out
    }

    /// One round ρ[key]: γ (S-box), π (shift columns), θ (mix rows), σ (add key).
    fn round(state: &Matrix, key: &Matrix) -> Matrix {
        let s = sbox();
        // γ then π: column j shifts downwards by j.
        let mut shifted = [[0u8; 8]; 8];
        for i in 0..8 {
            for j in 0..8 {
                shifted[(i + j) % 8][j] = s[state[i][j] as usize];
            }
        }
        // θ: b[i][j] = Σ_k shifted[i][k] · c[(j − k) mod 8], then σ.
        let mut out = [[0u8; 8]; 8];
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = 0u8;
                for k in 0..8 {
                    acc ^= gf_mul(shifted[i][k], C[(j + 8 - k) % 8]);
                }
                out[i][j] = acc ^ key[i][j];
            }
        }
        out
    }

    /// The block cipher W in Miyaguchi–Preneel mode.
    fn compress(h: &mut [u8; 64], block: &[u8; 64]) {
        let s = sbox();
        let mut key = to_matrix(h);
        let mut state = to_matrix(block);
        // Whitening.
        for i in 0..8 {
            for j in 0..8 {
                state[i][j] ^= key[i][j];
            }
        }
        for r in 0..10 {
            // Round constant: first row from the S-box, other rows zero.
            let mut rc = [[0u8; 8]; 8];
            for j in 0..8 {
                rc[0][j] = s[8 * r + j];
            }
            key = round(&key, &rc);
            state = round(&state, &key);
        }
        let cipher = from_matrix(&state);
        for i in 0..64 {
            h[i] ^= cipher[i] ^ block[i];
        }
    }

    /// One-shot Whirlpool over the padded message.
    pub fn whirlpool(data: &[u8]) -> Vec<u8> {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 32 {
            msg.push(0);
        }
        msg.extend_from_slice(&[0u8; 16]);
        msg.extend_from_slice(&(data.len() as u128 * 8).to_be_bytes());
        let mut h = [0u8; 64];
        for block in msg.chunks_exact(64) {
            compress(&mut h, block.try_into().unwrap());
        }
        h.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn wp_hex(data: &[u8]) -> String {
        let mut h = Whirlpool::new();
        h.update_bytes(data);
        hex::encode(&h.finalize_bytes())
    }

    #[test]
    fn sbox_matches_spec_corners() {
        let s = sbox();
        assert_eq!(s[0], 0x18, "S(0x00)");
        // The S-box is a permutation.
        let mut seen = [false; 256];
        for &v in s.iter() {
            assert!(!seen[v as usize], "S-box value repeated");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn iso_empty_string_vector() {
        assert_eq!(
            wp_hex(b""),
            "19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a7\
             3e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3"
        );
    }

    #[test]
    fn iso_abc_vector() {
        assert_eq!(
            wp_hex(b"abc"),
            "4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c\
             7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5"
        );
    }

    #[test]
    fn tables_match_the_matrix_round() {
        // Every length across the padding boundary (32) and the first
        // two block boundaries, one-shot and split at each block edge.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let want = hex::encode(&reference::whirlpool(&data[..len]));
            assert_eq!(wp_hex(&data[..len]), want, "len {len}");
            for split in [31, 32, 63, 64, 65, 127, 128] {
                let split = split.min(len);
                let mut h = Whirlpool::new();
                h.update_bytes(&data[..split]);
                h.update_bytes(&data[split..len]);
                assert_eq!(
                    hex::encode(&h.finalize_bytes()),
                    want,
                    "len {len} split {split}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The C-table kernel equals the matrix round on arbitrary bytes
        /// fed in three arbitrary pieces.
        #[test]
        fn whirlpool_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            a in 0usize..201,
            b in 0usize..201,
        ) {
            let (a, b) = (a.min(data.len()), b.min(data.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Whirlpool::new();
            h.update_bytes(&data[..a]);
            h.update_bytes(&data[a..b]);
            h.update_bytes(&data[b..]);
            prop_assert_eq!(h.finalize_bytes(), reference::whirlpool(&data));
        }
    }

    #[test]
    fn block_boundary_streaming() {
        let data = vec![0x11u8; 96];
        let oneshot = wp_hex(&data);
        let mut h = Whirlpool::new();
        h.update_bytes(&data[..64]);
        h.update_bytes(&data[64..]);
        assert_eq!(hex::encode(&h.finalize_bytes()), oneshot);
    }
}
