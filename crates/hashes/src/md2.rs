//! MD2 (RFC 1319).
//!
//! MD2 operates on 16-byte blocks with a checksum block appended before the
//! final digest; its S-box is the standard π-derived permutation from the
//! RFC, reproduced below and pinned by the RFC 1319 test vectors.

use crate::Hasher;

/// The 256-byte π-derived substitution table from RFC 1319.
const S: [u8; 256] = [
    41, 46, 67, 201, 162, 216, 124, 1, 61, 54, 84, 161, 236, 240, 6, 19, //
    98, 167, 5, 243, 192, 199, 115, 140, 152, 147, 43, 217, 188, 76, 130, 202, //
    30, 155, 87, 60, 253, 212, 224, 22, 103, 66, 111, 24, 138, 23, 229, 18, //
    190, 78, 196, 214, 218, 158, 222, 73, 160, 251, 245, 142, 187, 47, 238, 122, //
    169, 104, 121, 145, 21, 178, 7, 63, 148, 194, 16, 137, 11, 34, 95, 33, //
    128, 127, 93, 154, 90, 144, 50, 39, 53, 62, 204, 231, 191, 247, 151, 3, //
    255, 25, 48, 179, 72, 165, 181, 209, 215, 94, 146, 42, 172, 86, 170, 198, //
    79, 184, 56, 210, 150, 164, 125, 182, 118, 252, 107, 226, 156, 116, 4, 241, //
    69, 157, 112, 89, 100, 113, 135, 32, 134, 91, 207, 101, 230, 45, 168, 2, //
    27, 96, 37, 173, 174, 176, 185, 246, 28, 70, 97, 105, 52, 64, 126, 15, //
    85, 71, 163, 35, 221, 81, 175, 58, 195, 92, 249, 206, 186, 197, 234, 38, //
    44, 83, 13, 110, 133, 40, 132, 9, 211, 223, 205, 244, 65, 129, 77, 82, //
    106, 220, 55, 200, 108, 193, 171, 250, 36, 225, 123, 8, 12, 189, 177, 74, //
    120, 136, 149, 139, 227, 99, 232, 109, 233, 203, 213, 254, 59, 0, 29, 57, //
    242, 239, 183, 14, 102, 88, 208, 228, 166, 119, 114, 248, 235, 117, 75, 10, //
    49, 68, 80, 180, 143, 237, 31, 26, 219, 153, 141, 51, 159, 17, 131, 20,
];

/// Streaming MD2 state.
pub struct Md2 {
    x: [u8; 48],
    checksum: [u8; 16],
    buf: [u8; 16],
    buf_len: usize,
}

impl Default for Md2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md2 {
    pub fn new() -> Self {
        Md2 {
            x: [0; 48],
            checksum: [0; 16],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    #[allow(clippy::needless_range_loop)] // indices mirror the RFC 1319 pseudocode
    fn process_block(&mut self, block: &[u8; 16]) {
        // Update checksum (RFC 1319 section 3.2).
        let mut l = self.checksum[15];
        for i in 0..16 {
            self.checksum[i] ^= S[(block[i] ^ l) as usize];
            l = self.checksum[i];
        }
        // Update digest state (section 3.4).
        for i in 0..16 {
            self.x[16 + i] = block[i];
            self.x[32 + i] = self.x[16 + i] ^ self.x[i];
        }
        let mut t = 0u8;
        for j in 0..18u16 {
            for k in 0..48 {
                self.x[k] ^= S[t as usize];
                t = self.x[k];
            }
            t = t.wrapping_add(j as u8);
        }
    }

    fn update_bytes(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.process_block(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let block: [u8; 16] = data[..16].try_into().unwrap();
            self.process_block(&block);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize_bytes(mut self) -> Vec<u8> {
        // Pad with N bytes of value N so the message is a multiple of 16.
        let pad = 16 - self.buf_len;
        self.buf[self.buf_len..].fill(pad as u8);
        let block = self.buf;
        self.process_block(&block);
        // Append the checksum as a final block.
        let checksum = self.checksum;
        self.process_block(&checksum);
        self.x[..16].to_vec()
    }
}

impl Hasher for Md2 {
    fn update(&mut self, data: &[u8]) {
        self.update_bytes(data);
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        (*self).finalize_bytes()
    }
    fn output_len(&self) -> usize {
        16
    }
}

/// The padding this module used before it padded the buffer in place: an
/// allocated `vec![pad; pad]` fed through `update_bytes`. Kept as the
/// oracle for `md2_equals_reference`.
#[cfg(test)]
mod reference {
    use super::Md2;

    pub fn md2(data: &[u8]) -> Vec<u8> {
        let mut h = Md2::new();
        h.update_bytes(data);
        let pad = 16 - h.buf_len;
        let padding = vec![pad as u8; pad];
        h.update_bytes(&padding);
        let checksum = h.checksum;
        h.process_block(&checksum);
        h.x[..16].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn md2_hex(data: &[u8]) -> String {
        let mut h = Md2::new();
        h.update_bytes(data);
        hex::encode(&h.finalize_bytes())
    }

    #[test]
    fn rfc1319_vectors() {
        assert_eq!(md2_hex(b""), "8350e5a3e24c153df2275c9f80692773");
        assert_eq!(md2_hex(b"a"), "32ec01ec4a6dac72c0ab96fb34c0b5d1");
        assert_eq!(md2_hex(b"abc"), "da853b0d3f88d99b30283a69e6ded6bb");
        assert_eq!(
            md2_hex(b"message digest"),
            "ab4f496bfb2a530b219ff33031fe06b0"
        );
        assert_eq!(
            md2_hex(b"abcdefghijklmnopqrstuvwxyz"),
            "4e8ddff3650292ab5a4108c3aa47940b"
        );
    }

    #[test]
    fn full_block_input_gets_full_block_padding() {
        // A 16-byte message pads with a whole extra block of 0x10 bytes;
        // equality between the streaming and one-shot paths pins this.
        let data = [0x42u8; 16];
        let mut h = Md2::new();
        h.update_bytes(&data[..5]);
        h.update_bytes(&data[5..]);
        assert_eq!(hex::encode(&h.finalize_bytes()), md2_hex(&data));
    }

    use proptest::prelude::*;

    proptest! {
        /// In-place padding equals the allocated padding on arbitrary
        /// bytes fed in two arbitrary pieces.
        #[test]
        fn md2_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            split in 0usize..201,
        ) {
            let split = split.min(data.len());
            let mut h = Md2::new();
            h.update_bytes(&data[..split]);
            h.update_bytes(&data[split..]);
            prop_assert_eq!(h.finalize_bytes(), reference::md2(&data));
        }
    }
}
