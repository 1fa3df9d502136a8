//! bzip2-style compressor (see the substitution note in DESIGN.md).
//!
//! This codec keeps the reference bzip2 pipeline — initial run-length
//! encoding, Burrows–Wheeler transform, move-to-front, and Huffman entropy
//! coding with a per-block CRC-32 — inside a simplified single-table
//! container (`BZs` magic rather than `BZh`): real bzip2's multi-table
//! selector machinery and 1-in-50 group switching add nothing to leak
//! detection because the obfuscator and the detector share this
//! implementation. The pipeline is fully lossless and every stage is
//! exercised by the tests below.

use crate::DecodeError;
use pii_hashes::crc::Crc32;
use pii_hashes::Hasher;

const MAGIC: [u8; 3] = *b"BZs";
/// Maximum bytes per block after RLE1 (keeps the naive BWT sort cheap).
const BLOCK_SIZE: usize = 64 * 1024;
/// Longest Huffman code [`huffman_lengths`] emits and the decoder reads.
const MAX_CODE_LEN: u8 = 15;

// --- stage 1: bzip2's initial RLE (runs of 4-259 → 4 bytes + count) --------

fn rle1_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 259 {
            run += 1;
        }
        if run >= 4 {
            out.extend_from_slice(&[b; 4]);
            out.push((run - 4) as u8);
            i += run;
        } else {
            out.extend(std::iter::repeat_n(b, run));
            i += run;
        }
    }
    out
}

fn rle1_decode(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while run < 4 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        out.extend(std::iter::repeat_n(b, run));
        i += run;
        if run == 4 {
            let extra = *data
                .get(i)
                .ok_or(DecodeError::Corrupt("RLE1 run missing count byte"))?;
            out.extend(std::iter::repeat_n(b, extra as usize));
            i += 1;
        }
    }
    Ok(out)
}

// --- stage 2: Burrows–Wheeler transform -------------------------------------

/// Returns (last column, index of the original rotation).
fn bwt_encode(data: &[u8]) -> (Vec<u8>, u32) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    // Prefix-doubling sort of all rotations: O(n log² n) regardless of how
    // repetitive the block is (a naive comparison sort degenerates to O(n²·n)
    // on periodic data, which real payloads frequently are).
    let mut rank: Vec<u32> = data.iter().map(|&b| b as u32).collect();
    let mut rotations: Vec<usize> = (0..n).collect();
    let mut k = 1usize;
    loop {
        let key = |i: usize| (rank[i], rank[(i + k) % n]);
        rotations.sort_by_key(|&i| key(i));
        let mut new_rank = vec![0u32; n];
        for w in 1..n {
            new_rank[rotations[w]] =
                new_rank[rotations[w - 1]] + (key(rotations[w]) != key(rotations[w - 1])) as u32;
        }
        let distinct = new_rank[rotations[n - 1]] as usize + 1;
        rank = new_rank;
        if distinct == n || k >= n {
            break;
        }
        k *= 2;
    }
    let mut last = Vec::with_capacity(n);
    let mut orig = 0u32;
    for (rank, &rot) in rotations.iter().enumerate() {
        last.push(data[(rot + n - 1) % n]);
        if rot == 0 {
            orig = rank as u32;
        }
    }
    (last, orig)
}

fn bwt_decode(last: &[u8], orig: u32) -> Result<Vec<u8>, DecodeError> {
    let n = last.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if orig as usize >= n {
        return Err(DecodeError::Corrupt("BWT pointer out of range"));
    }
    // LF mapping: next[i] = position in `last` of the predecessor row.
    let mut counts = [0usize; 256];
    for &b in last {
        counts[b as usize] += 1;
    }
    let mut starts = [0usize; 256];
    let mut acc = 0;
    for (b, &c) in counts.iter().enumerate() {
        starts[b] = acc;
        acc += c;
    }
    let mut next = vec![0usize; n];
    let mut seen = [0usize; 256];
    for (i, &b) in last.iter().enumerate() {
        next[starts[b as usize] + seen[b as usize]] = i;
        seen[b as usize] += 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut p = next[orig as usize];
    for _ in 0..n {
        out.push(last[p]);
        p = next[p];
    }
    Ok(out)
}

// --- stage 3: move-to-front --------------------------------------------------

fn mtf_encode(data: &[u8]) -> Vec<u8> {
    let mut table: Vec<u8> = (0..=255).collect();
    data.iter()
        .map(|&b| {
            let idx = table.iter().position(|&t| t == b).unwrap();
            table.remove(idx);
            table.insert(0, b);
            idx as u8
        })
        .collect()
}

fn mtf_decode(data: &[u8]) -> Vec<u8> {
    let mut table: Vec<u8> = (0..=255).collect();
    data.iter()
        .map(|&idx| {
            let b = table.remove(idx as usize);
            table.insert(0, b);
            b
        })
        .collect()
}

// --- stage 4: canonical Huffman ----------------------------------------------

/// Build depth-limited (≤ [`MAX_CODE_LEN`]) Huffman code lengths from
/// frequencies.
fn huffman_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on id for determinism.
        id: usize,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(u8),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut scaled: Vec<u64> = freqs.to_vec();
    loop {
        let mut heap = std::collections::BinaryHeap::new();
        let mut id = 0usize;
        for (sym, &w) in scaled.iter().enumerate() {
            if w > 0 {
                heap.push(Node {
                    weight: w,
                    id,
                    kind: NodeKind::Leaf(sym as u8),
                });
                id += 1;
            }
        }
        if heap.is_empty() {
            return [0; 256];
        }
        if heap.len() == 1 {
            let only = heap.pop().unwrap();
            let mut lengths = [0u8; 256];
            if let NodeKind::Leaf(sym) = only.kind {
                lengths[sym as usize] = 1;
            }
            return lengths;
        }
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            heap.push(Node {
                weight: a.weight + b.weight,
                id,
                kind: NodeKind::Internal(Box::new(a), Box::new(b)),
            });
            id += 1;
        }
        let root = heap.pop().unwrap();
        let mut lengths = [0u8; 256];
        let mut max_depth = 0u8;
        let mut stack = vec![(&root, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            match &node.kind {
                NodeKind::Leaf(sym) => {
                    lengths[*sym as usize] = depth.max(1);
                    max_depth = max_depth.max(depth);
                }
                NodeKind::Internal(a, b) => {
                    stack.push((a, depth + 1));
                    stack.push((b, depth + 1));
                }
            }
        }
        if max_depth <= MAX_CODE_LEN {
            return lengths;
        }
        // Flatten the distribution and retry (classic depth-limit fallback).
        for w in scaled.iter_mut() {
            if *w > 0 {
                *w = *w / 2 + 1;
            }
        }
    }
}

fn canonical_codes(lengths: &[u8; 256]) -> [u32; 256] {
    let mut pairs: Vec<(u8, usize)> = lengths
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0)
        .map(|(sym, &l)| (l, sym))
        .collect();
    pairs.sort();
    let mut codes = [0u32; 256];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for (len, sym) in pairs {
        code <<= len - prev_len;
        codes[sym] = code;
        code += 1;
        prev_len = len;
    }
    codes
}

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }
    /// MSB-first bit packing (as real bzip2 uses).
    fn write(&mut self, value: u32, n: u32) {
        self.acc = (self.acc << n) | value as u64;
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }
    fn read(&mut self, n: u32) -> Result<u32, DecodeError> {
        while self.nbits < n {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or(DecodeError::Corrupt("unexpected end of bzip2 stream"))?;
            self.acc = (self.acc << 8) | byte as u64;
            self.nbits += 8;
            self.pos += 1;
        }
        debug_assert!(n < 32);
        let value = (self.acc >> (self.nbits - n)) as u32 & ((1u32 << n) - 1);
        self.nbits -= n;
        Ok(value)
    }
}

// --- container ----------------------------------------------------------------

/// Compress with the bzip2-style pipeline.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let rle = rle1_encode(data);
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    let blocks: Vec<&[u8]> = if rle.is_empty() {
        Vec::new()
    } else {
        rle.chunks(BLOCK_SIZE).collect()
    };
    out.extend_from_slice(&(blocks.len() as u32).to_be_bytes());
    for block in blocks {
        let (last, orig) = bwt_encode(block);
        let mtf = mtf_encode(&last);
        let mut freqs = [0u64; 256];
        for &b in &mtf {
            freqs[b as usize] += 1;
        }
        let lengths = huffman_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        let mut w = BitWriter::new();
        for &b in &mtf {
            w.write(codes[b as usize], lengths[b as usize] as u32);
        }
        let payload = w.finish();

        let mut crc = Crc32::new();
        Hasher::update(&mut crc, block);

        out.extend_from_slice(&(block.len() as u32).to_be_bytes());
        out.extend_from_slice(&orig.to_be_bytes());
        out.extend_from_slice(&crc.value().to_be_bytes());
        out.extend_from_slice(&lengths);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    if data.len() < 7 || data[..3] != MAGIC {
        return Err(DecodeError::Corrupt("bad bzip2 magic"));
    }
    let nblocks = u32::from_be_bytes(data[3..7].try_into().unwrap()) as usize;
    let mut pos = 7;
    let mut rle = Vec::new();
    for _ in 0..nblocks {
        if data.len() < pos + 12 + 256 + 4 {
            return Err(DecodeError::Corrupt("truncated block header"));
        }
        let block_len = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let orig = u32::from_be_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let expected_crc = u32::from_be_bytes(data[pos + 8..pos + 12].try_into().unwrap());
        pos += 12;
        let mut lengths = [0u8; 256];
        lengths.copy_from_slice(&data[pos..pos + 256]);
        pos += 256;
        // `canonical_codes` shifts by length differences: a damaged length
        // past the limit would overflow the shift.
        if lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            return Err(DecodeError::Corrupt("Huffman code length over 15"));
        }
        let payload_len = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if data.len() < pos + payload_len {
            return Err(DecodeError::Corrupt("truncated block payload"));
        }
        let payload = &data[pos..pos + payload_len];
        pos += payload_len;

        // Rebuild the canonical decode mapping: (len, code) → symbol.
        let codes = canonical_codes(&lengths);
        let mut decode_map = std::collections::HashMap::new();
        for sym in 0..256usize {
            if lengths[sym] > 0 {
                decode_map.insert((lengths[sym], codes[sym]), sym as u8);
            }
        }
        let mut r = BitReader::new(payload);
        // Every symbol takes at least one bit, so the payload bounds the
        // block whatever the (unchecked) header claims.
        let mut mtf = Vec::with_capacity(block_len.min(payload_len.saturating_mul(8)));
        while mtf.len() < block_len {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                code = (code << 1) | r.read(1)?;
                len += 1;
                if len > MAX_CODE_LEN {
                    return Err(DecodeError::Corrupt("bad Huffman code"));
                }
                if let Some(&sym) = decode_map.get(&(len, code)) {
                    mtf.push(sym);
                    break;
                }
            }
        }
        let last = mtf_decode(&mtf);
        let block = bwt_decode(&last, orig)?;
        let mut crc = Crc32::new();
        Hasher::update(&mut crc, &block);
        if crc.value() != expected_crc {
            return Err(DecodeError::ChecksumMismatch);
        }
        rle.extend_from_slice(&block);
    }
    rle1_decode(&rle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_roundtrips() {
        let data = b"banana banana banana bananaaaaaaaa!";
        assert_eq!(rle1_decode(&rle1_encode(data)).unwrap(), data);
        let (last, orig) = bwt_encode(data);
        assert_eq!(bwt_decode(&last, orig).unwrap(), data);
        assert_eq!(mtf_decode(&mtf_encode(data)), data);
    }

    #[test]
    fn bwt_of_banana() {
        // Classic worked example: rotations of "banana" sort to annb[aa].
        let (last, orig) = bwt_encode(b"banana");
        assert_eq!(last, b"nnbaaa");
        assert_eq!(bwt_decode(&last, orig).unwrap(), b"banana");
    }

    #[test]
    fn full_roundtrip() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"foo@mydom.com".to_vec(),
            vec![0u8; 1000],
            b"bzip2 bzip2 bzip2 ".repeat(300),
            (0..50_000u32).map(|i| (i % 7) as u8).collect(),
        ];
        for input in inputs {
            let c = compress(&input);
            assert_eq!(decompress(&c).unwrap(), input, "len={}", input.len());
        }
    }

    #[test]
    fn repetitive_input_compresses() {
        let input = b"email=foo@mydom.com&".repeat(200);
        let c = compress(&input);
        assert!(c.len() < input.len() / 3, "{} of {}", c.len(), input.len());
    }

    #[test]
    fn corruption_detected() {
        // Flip a byte inside the Huffman-length table (header is 7 bytes,
        // block header 12, lengths follow); the CRC catches the damage even
        // when the stream still decodes structurally.
        let mut c = compress(b"hello hello hello hello hello");
        c[25] ^= 0x01;
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(decompress(b"BZh91AY&SY").is_err());
    }

    /// A code length past the 15-bit limit is a decode error, not a shift
    /// overflow in `canonical_codes`.
    #[test]
    fn overlong_code_length_is_rejected() {
        let mut c = compress(b"hello hello hello hello hello");
        let lengths = 7 + 12;
        let used = (lengths..lengths + 256).find(|&i| c[i] > 0).unwrap();
        c[used] = 200;
        assert_eq!(
            decompress(&c),
            Err(DecodeError::Corrupt("Huffman code length over 15"))
        );
    }

    #[test]
    fn long_runs_hit_rle_cap() {
        let input = vec![b'z'; 600]; // > 259, forces multiple RLE runs
        assert_eq!(decompress(&compress(&input)).unwrap(), input);
    }
}
