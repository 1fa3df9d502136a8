//! DEFLATE (RFC 1951).
//!
//! * [`compress`] runs a greedy LZ77 pass (hash chains over a 32 KiB
//!   window) and emits the tokens as one dynamic-Huffman or fixed-Huffman
//!   block, whichever is smaller, falling back to stored blocks when even
//!   that would not beat the input. The output is readable by any
//!   standards-compliant inflater.
//! * [`decompress`] is a full inflater: stored, fixed-Huffman, and
//!   dynamic-Huffman blocks, decoded through two-level lookup tables out of
//!   a 64-bit bit buffer. [`decompress_with_capacity`] also takes the
//!   expected output size, to reserve the output buffer once.
//!
//! The compressor's output bytes are part of the capture archive's format,
//! so they are pinned: `tests/store.rs` hashes a whole archive, and the
//! unit tests below check [`compress`] byte-for-byte against the simpler
//! implementation it replaced, kept as a test-only oracle. The inflater
//! has an oracle of the same kind: [`decompress`] must fail on exactly the
//! streams the simpler inflater fails on, and return the same bytes on
//! every other.

use crate::DecodeError;

// --- shared tables ----------------------------------------------------------

/// Base match lengths for length codes 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for length codes 257..=285.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distances for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance codes 0..=29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Code-length alphabet permutation for dynamic blocks.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Fixed-Huffman literal/length code lengths (RFC 1951 §3.2.6).
const FIXED_LIT_LENGTHS: [u8; 288] = {
    let mut lengths = [8u8; 288];
    let mut sym = 144;
    while sym < 256 {
        lengths[sym] = 9;
        sym += 1;
    }
    while sym < 280 {
        lengths[sym] = 7;
        sym += 1;
    }
    lengths
};
/// Fixed-Huffman distance code lengths.
const FIXED_DIST_LENGTHS: [u8; 30] = [5; 30];

/// Length code index (0..=28) of every match length; entries below
/// `MIN_MATCH` are unused.
static LENGTH_CODE: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while code + 1 < LENGTH_BASE.len() && LENGTH_BASE[code + 1] as usize <= len {
            code += 1;
        }
        table[len] = code as u8;
        len += 1;
    }
    table
};

/// Distance code index (0..=29) of `distance - 1`: direct for the first
/// 256 distances, then by `(distance - 1) >> 7` — every base from code 16
/// on is one more than a multiple of 128, so the shift loses nothing.
static DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    let mut d = 0;
    while d < 256 {
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= d + 1 {
            code += 1;
        }
        table[d] = code as u8;
        d += 1;
    }
    let mut k = 2;
    while k < 256 {
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= (k << 7) + 1 {
            code += 1;
        }
        table[256 + k] = code as u8;
        k += 1;
    }
    table
};

/// Length code index of a match length (3..=258).
fn length_code(len: u16) -> usize {
    LENGTH_CODE[len as usize] as usize
}

/// Distance code index of a match distance (1..=32768).
fn dist_code(dist: u16) -> usize {
    let d = dist as usize - 1;
    if d < 256 {
        DIST_CODE[d] as usize
    } else {
        DIST_CODE[256 + (d >> 7)] as usize
    }
}

// --- bit IO -----------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write the low `n` (≤ 32) bits of `value`, LSB first (RFC 1951 bit
    /// order). Huffman codes go through here already bit-reversed.
    #[inline]
    fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32 && u64::from(value) >> n == 0);
        self.acc |= u64::from(value) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.out
    }
}

/// Canonical codes (encoder side) for `lengths`, each bit-reversed once so
/// it can be written LSB-first like any other field.
fn reversed_codes(lengths: &[u8]) -> Vec<u16> {
    let mut count = [0u16; 16];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u16; 16];
    let mut code = 0u16;
    for len in 1..16 {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[l as usize];
                next[l as usize] += 1;
                c.reverse_bits() >> (16 - l)
            }
        })
        .collect()
}

// --- compression ------------------------------------------------------------

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32768;
const HASH_BITS: u32 = 15;
/// Hash-chain candidates examined per position.
const MAX_CHAIN: usize = 32;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | (data[i + 1] as u32) << 8 | (data[i + 2] as u32) << 16;
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LzToken {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Length of the common prefix of two equal-length slices, eight bytes at
/// a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
        let y = u64::from_le_bytes([y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]]);
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Greedy LZ77 tokenizer with a hash-chain match finder: at each position
/// the longest match among the newest `MAX_CHAIN` candidates within
/// `WINDOW` wins, the newest on a tie.
///
/// Chain links hold `position + 1` as `u32` (0 ends a chain). `prev` is a
/// ring over the last `WINDOW` positions: a slot is only overwritten by a
/// position `WINDOW` later, and by then the window test already stops any
/// chain that would read it. Past 4 GiB of input the stored positions wrap;
/// the distance is then recomputed modulo 2^32 and the bytes compared at
/// that real distance, so the stream stays valid.
fn lz77_tokens(data: &[u8]) -> Vec<LzToken> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    let mut head = vec![0u32; 1 << HASH_BITS];
    let ring = n.next_power_of_two().min(WINDOW);
    let mask = ring - 1;
    let mut prev = vec![0u32; ring];
    let insert = |head: &mut [u32], prev: &mut [u32], h: usize, pos: usize| {
        prev[pos & mask] = head[h];
        head[h] = (pos as u32).wrapping_add(1);
    };
    let mut i = 0;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            let max_len = (n - i).min(MAX_MATCH);
            let here = &data[i..i + max_len];
            let mut link = head[h];
            let mut chain = 0;
            while link != 0 && chain < MAX_CHAIN {
                let dist = (i as u32).wrapping_sub(link - 1) as usize;
                if dist.wrapping_sub(1) >= WINDOW {
                    break;
                }
                let candidate = i - dist;
                // A candidate that differs at `best_len` cannot beat it.
                if data[candidate + best_len] == here[best_len] {
                    let l = common_prefix(&data[candidate..candidate + max_len], here);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == max_len {
                            break;
                        }
                    }
                }
                link = prev[candidate & mask];
                chain += 1;
            }
            insert(&mut head, &mut prev, h, i);
        }
        if best_len >= MIN_MATCH {
            tokens.push(LzToken::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert hash entries for the skipped positions so later matches
            // can reference them.
            for j in i + 1..(i + best_len).min(n.saturating_sub(MIN_MATCH - 1)) {
                insert(&mut head, &mut prev, hash3(data, j), j);
            }
            i += best_len;
        } else {
            tokens.push(LzToken::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Symbol frequencies of one token stream — all the block-type decision
/// needs, since a block's size is a dot product of frequencies and code
/// lengths.
struct BlockStats {
    /// Literal/length symbol counts, end-of-block included.
    lit: [u64; 286],
    dist: [u64; 30],
    /// Length and distance extra bits, the same under every code.
    extra_bits: u64,
}

impl BlockStats {
    fn count(tokens: &[LzToken]) -> BlockStats {
        let mut stats = BlockStats {
            lit: [0; 286],
            dist: [0; 30],
            extra_bits: 0,
        };
        stats.lit[256] = 1; // end-of-block
        for &token in tokens {
            match token {
                LzToken::Literal(b) => stats.lit[b as usize] += 1,
                LzToken::Match { len, dist } => {
                    let (lcode, dcode) = (length_code(len), dist_code(dist));
                    stats.lit[257 + lcode] += 1;
                    stats.dist[dcode] += 1;
                    stats.extra_bits += u64::from(LENGTH_EXTRA[lcode] + DIST_EXTRA[dcode]);
                }
            }
        }
        stats
    }

    /// Bits of the tokens plus end-of-block under the given code lengths.
    fn body_bits(&self, lit_lengths: &[u8], dist_lengths: &[u8]) -> u64 {
        let dot = |freqs: &[u64], lengths: &[u8]| -> u64 {
            freqs
                .iter()
                .zip(lengths)
                .map(|(&f, &l)| f * u64::from(l))
                .sum()
        };
        dot(&self.lit, lit_lengths) + dot(&self.dist, dist_lengths) + self.extra_bits
    }

    /// Exact size of the fixed-Huffman block, header included.
    fn fixed_block_bits(&self) -> u64 {
        3 + self.body_bits(&FIXED_LIT_LENGTHS, &FIXED_DIST_LENGTHS)
    }
}

/// Depth-limited Huffman code lengths from frequencies, with the classic
/// scale-and-retry fallback when a code exceeds `max_len`.
///
/// Nodes are merged smallest `(weight, id)` first, where leaves take ids in
/// symbol order and each merged node the next id. Merged weights never
/// decrease, so the merged nodes queue up already in `(weight, id)` order:
/// two queues — sorted leaves, merged nodes in creation order — pop the
/// same sequence a heap would, with no heap.
fn huffman_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    let leaves: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    let n = leaves.len();
    match n {
        0 => return lengths,
        1 => {
            lengths[leaves[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    let mut weight: Vec<u64> = leaves.iter().map(|&s| freqs[s]).collect();
    weight.resize(2 * n - 1, 0);
    let mut parent = vec![0usize; 2 * n - 1];
    let mut depth = vec![0u16; 2 * n - 1];
    let mut sorted: Vec<usize> = (0..n).collect();
    loop {
        sorted.sort_unstable_by_key(|&id| (weight[id], id));
        let (mut next_leaf, mut next_merged) = (0, n);
        for id in n..2 * n - 1 {
            for _ in 0..2 {
                // A leaf wins a weight tie: its id is smaller.
                let take_leaf = next_leaf < n
                    && (next_merged == id || weight[sorted[next_leaf]] <= weight[next_merged]);
                let child = if take_leaf {
                    next_leaf += 1;
                    sorted[next_leaf - 1]
                } else {
                    next_merged += 1;
                    next_merged - 1
                };
                weight[id] += weight[child];
                parent[child] = id;
            }
        }
        // Parents outrank their children, so one downward sweep sets depths.
        let root = 2 * n - 2;
        depth[root] = 0;
        for id in (0..root).rev() {
            depth[id] = depth[parent[id]] + 1;
        }
        if depth[..n].iter().all(|&d| d <= u16::from(max_len)) {
            for (id, &sym) in leaves.iter().enumerate() {
                lengths[sym] = depth[id] as u8;
            }
            return lengths;
        }
        for w in &mut weight[..n] {
            *w = *w / 2 + 1;
        }
        weight[n..].fill(0);
    }
}

/// The code tables and header of one dynamic-Huffman block (RFC 1951
/// §3.2.7).
struct DynamicHeader {
    lit_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    hlit: usize,
    hdist: usize,
    hclen: usize,
    clen_lengths: Vec<u8>,
    /// Run-length-coded code lengths: (symbol, extra value, extra bits).
    rle: Vec<(u8, u8, u8)>,
}

impl DynamicHeader {
    fn build(stats: &BlockStats) -> DynamicHeader {
        let lit_lengths = huffman_code_lengths(&stats.lit, 15);
        let mut dist_lengths = huffman_code_lengths(&stats.dist, 15);
        if dist_lengths.iter().all(|&l| l == 0) {
            dist_lengths[0] = 1; // HDIST ≥ 1: emit one unused distance code
        }
        // Trim trailing zero lengths (but respect the minimums).
        let hlit = (257..=286)
            .rev()
            .find(|&n| n == 257 || lit_lengths[n - 1] != 0)
            .unwrap_or(257);
        let hdist = (1..=30)
            .rev()
            .find(|&n| n == 1 || dist_lengths[n - 1] != 0)
            .unwrap_or(1);

        // RLE-encode the concatenated code lengths with symbols 16/17/18.
        let all_lengths: Vec<u8> = lit_lengths[..hlit]
            .iter()
            .chain(&dist_lengths[..hdist])
            .copied()
            .collect();
        let mut rle = Vec::new();
        let mut i = 0usize;
        while i < all_lengths.len() {
            let run_start = i;
            let value = all_lengths[i];
            while i < all_lengths.len() && all_lengths[i] == value {
                i += 1;
            }
            let mut run = i - run_start;
            if value == 0 {
                while run >= 11 {
                    let take = run.min(138);
                    rle.push((18, (take - 11) as u8, 7));
                    run -= take;
                }
                while run >= 3 {
                    let take = run.min(10);
                    rle.push((17, (take - 3) as u8, 3));
                    run -= take;
                }
            } else {
                rle.push((value, 0, 0));
                run -= 1;
                while run >= 3 {
                    let take = run.min(6);
                    rle.push((16, (take - 3) as u8, 2));
                    run -= take;
                }
            }
            rle.extend(std::iter::repeat_n((value, 0, 0), run));
        }
        // Code-length code.
        let mut clen_freqs = [0u64; 19];
        for &(sym, _, _) in &rle {
            clen_freqs[sym as usize] += 1;
        }
        let clen_lengths = huffman_code_lengths(&clen_freqs, 7);
        let hclen = (4..=19)
            .rev()
            .find(|&n| n == 4 || clen_lengths[CLEN_ORDER[n - 1]] != 0)
            .unwrap_or(4);
        DynamicHeader {
            lit_lengths,
            dist_lengths,
            hlit,
            hdist,
            hclen,
            clen_lengths,
            rle,
        }
    }

    /// Exact size of the whole dynamic block, header included.
    fn block_bits(&self, stats: &BlockStats) -> u64 {
        let table_bits: u64 = self
            .rle
            .iter()
            .map(|&(sym, _, extra_bits)| u64::from(self.clen_lengths[sym as usize] + extra_bits))
            .sum();
        // BFINAL + BTYPE, HLIT, HDIST, HCLEN, then 3 bits per code length.
        let header_bits = 3 + 5 + 5 + 4 + 3 * self.hclen as u64;
        header_bits + table_bits + stats.body_bits(&self.lit_lengths, &self.dist_lengths)
    }
}

/// Emit tokens plus end-of-block with the given (bit-reversed) codes.
fn write_tokens(
    w: &mut BitWriter,
    tokens: &[LzToken],
    lit_codes: &[u16],
    lit_lengths: &[u8],
    dist_codes: &[u16],
    dist_lengths: &[u8],
) {
    for &token in tokens {
        match token {
            LzToken::Literal(b) => {
                w.write_bits(lit_codes[b as usize].into(), lit_lengths[b as usize].into());
            }
            LzToken::Match { len, dist } => {
                // Code and extra bits go out as one field each for the
                // length and the distance (≤ 20 and ≤ 28 bits).
                let lcode = length_code(len);
                let sym = 257 + lcode;
                let lbits = u32::from(lit_lengths[sym]);
                let lextra = u32::from(len - LENGTH_BASE[lcode]);
                w.write_bits(
                    u32::from(lit_codes[sym]) | lextra << lbits,
                    lbits + u32::from(LENGTH_EXTRA[lcode]),
                );
                let dcode = dist_code(dist);
                let dbits = u32::from(dist_lengths[dcode]);
                let dextra = u32::from(dist - DIST_BASE[dcode]);
                w.write_bits(
                    u32::from(dist_codes[dcode]) | dextra << dbits,
                    dbits + u32::from(DIST_EXTRA[dcode]),
                );
            }
        }
    }
    w.write_bits(lit_codes[256].into(), lit_lengths[256].into()); // end of block
}

/// Write one final dynamic-Huffman block of `bits` bits.
fn write_dynamic_block(header: &DynamicHeader, tokens: &[LzToken], bits: u64) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(bits.div_ceil(8) as usize);
    w.write_bits(1, 1); // BFINAL
    w.write_bits(2, 2); // BTYPE=10 dynamic Huffman
    w.write_bits((header.hlit - 257) as u32, 5);
    w.write_bits((header.hdist - 1) as u32, 5);
    w.write_bits((header.hclen - 4) as u32, 4);
    for &idx in CLEN_ORDER.iter().take(header.hclen) {
        w.write_bits(header.clen_lengths[idx].into(), 3);
    }
    let clen_codes = reversed_codes(&header.clen_lengths);
    for &(sym, extra, extra_bits) in &header.rle {
        let s = sym as usize;
        let code_bits = u32::from(header.clen_lengths[s]);
        w.write_bits(
            u32::from(clen_codes[s]) | u32::from(extra) << code_bits,
            code_bits + u32::from(extra_bits),
        );
    }
    write_tokens(
        &mut w,
        tokens,
        &reversed_codes(&header.lit_lengths),
        &header.lit_lengths,
        &reversed_codes(&header.dist_lengths),
        &header.dist_lengths,
    );
    w.finish()
}

/// Write one final fixed-Huffman block of `bits` bits.
fn write_fixed_block(tokens: &[LzToken], bits: u64) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(bits.div_ceil(8) as usize);
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // BTYPE=01 fixed Huffman
    write_tokens(
        &mut w,
        tokens,
        &reversed_codes(&FIXED_LIT_LENGTHS),
        &FIXED_LIT_LENGTHS,
        &reversed_codes(&FIXED_DIST_LENGTHS),
        &FIXED_DIST_LENGTHS,
    );
    w.finish()
}

/// Compress with greedy LZ77, choosing per input between a dynamic-Huffman
/// block, a fixed-Huffman block, and stored blocks — whichever is smallest,
/// exactly like a real deflater's block-type decision. Both Huffman blocks
/// are sized from the symbol frequencies; only the winner is written.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77_tokens(data);
    let stats = BlockStats::count(&tokens);
    let header = DynamicHeader::build(&stats);
    let fixed_bytes = stats.fixed_block_bits().div_ceil(8);
    let dynamic_bits = header.block_bits(&stats);
    // A byte tie goes to the fixed block.
    let dynamic_wins = dynamic_bits.div_ceil(8) < fixed_bytes;
    let best_bytes = if dynamic_wins {
        dynamic_bits.div_ceil(8)
    } else {
        fixed_bytes
    };
    // Stored fallback: 5-byte header per 65535-byte chunk.
    let stored_size = 1 + data.len() + 5 * data.len().div_ceil(65535).max(1);
    if best_bytes > stored_size as u64 {
        return compress_stored(data);
    }
    if dynamic_wins {
        write_dynamic_block(&header, &tokens, dynamic_bits)
    } else {
        write_fixed_block(&tokens, fixed_bytes * 8)
    }
}

/// Emit stored (uncompressed) blocks only.
pub fn compress_stored(data: &[u8]) -> Vec<u8> {
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(65535).collect()
    };
    let mut out = Vec::with_capacity(data.len() + 5 * chunks.len());
    for (idx, chunk) in chunks.iter().enumerate() {
        let len = chunk.len() as u16;
        // BFINAL, BTYPE=00, and padding to the byte boundary.
        out.push(u8::from(idx + 1 == chunks.len()));
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

// --- decompression ----------------------------------------------------------

/// The most output [`decompress_with_capacity`] reserves per input byte.
/// DEFLATE can expand 1032-fold (a 258-byte match coded in two bits), but
/// the store's site segments inflate about 11-fold on average and under
/// 25-fold at worst, so 64 reserves enough for every honest segment while a
/// forged hint over a payload that is not DEFLATE reserves 64 times its size,
/// not 1032.
const HINT_EXPANSION: usize = 64;

/// Stream bits, LSB first, out of a 64-bit buffer.
///
/// The low `nbits` bits of `buf` are counted input; above them `buf` holds
/// either copies of the next input bits (a refill loads eight bytes but
/// counts only the whole bytes that fit) or zeros past the end of input. A
/// peek may therefore read bits past the end as zero padding, as the
/// reference inflater's `peek_bits` does, but consuming one fails the
/// decode.
struct Bits<'a> {
    data: &'a [u8],
    /// Next input byte not yet counted in `nbits`.
    pos: usize,
    buf: u64,
    nbits: u32,
}

impl<'a> Bits<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bits {
            data,
            pos: 0,
            buf: 0,
            nbits: 0,
        }
    }

    /// Top the buffer up to at least 56 counted bits, or to every input bit
    /// left. One refill covers a whole length/distance pair: at most 15 + 5
    /// and 15 + 13 bits.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self
            .data
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<8>())
        {
            self.buf |= u64::from_le_bytes(*word) << self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else {
            self.refill_tail();
        }
    }

    /// The last seven input bytes go in one at a time.
    #[inline(never)]
    fn refill_tail(&mut self) {
        while self.nbits <= 56 {
            let Some(&byte) = self.data.get(self.pos) else {
                break;
            };
            self.buf |= u64::from(byte) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
    }

    /// The next `n` (< 32) bits, zero-padded past the end of input.
    #[inline(always)]
    fn peek(&self, n: u32) -> u32 {
        (self.buf & ((1u64 << n) - 1)) as u32
    }

    #[inline(always)]
    fn consume(&mut self, n: u32) -> Result<(), DecodeError> {
        if n > self.nbits {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        self.buf >>= n;
        self.nbits -= n;
        Ok(())
    }

    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u32, DecodeError> {
        let value = self.peek(n);
        self.consume(n)?;
        Ok(value)
    }

    /// Skip to the next byte boundary and hand back the whole bytes still
    /// buffered: the input offset of the first byte not yet consumed. The
    /// buffer restarts empty at that offset.
    fn align_to_byte(&mut self) -> usize {
        let at = self.pos - (self.nbits / 8) as usize;
        self.pos = at;
        self.buf = 0;
        self.nbits = 0;
        at
    }
}

// Decode-table entries, one `u32` each:
//
//   bits  0..4   code length: the bits this symbol consumes
//   bits  4..8   extra bits after the code (length/distance base), or a
//                subtable's index width
//   bits  8..16  kind
//   bits 16..32  literal byte, length or distance base, code-length
//                symbol, or subtable offset
const KIND_LITERAL: u32 = 0;
const KIND_BASE: u32 = 1 << 8;
const KIND_END: u32 = 2 << 8;
const KIND_SUBTABLE: u32 = 3 << 8;
/// No symbol: an unassigned code of an incomplete code, or a symbol the
/// format reserves (literal/length 286/287, distance 30/31).
const KIND_INVALID: u32 = 4 << 8;
const KIND_MASK: u32 = 0xff << 8;

const fn table_entry(kind: u32, value: u32, extra: u8) -> u32 {
    value << 16 | kind | (extra as u32) << 4
}

/// Primary-table index widths. Longer codes continue in a subtable.
const LIT_BITS: u32 = 10;
const DIST_BITS: u32 = 8;
/// Code-length codes are at most 7 bits long: one level holds them all.
const CLEN_BITS: u32 = 7;

/// Table entry, less its code length, of every literal/length symbol.
static LIT_SYMBOLS: [u32; 288] = {
    let mut entries = [KIND_INVALID; 288];
    let mut sym = 0;
    while sym < 286 {
        entries[sym] = match sym {
            0..=255 => table_entry(KIND_LITERAL, sym as u32, 0),
            256 => KIND_END,
            _ => table_entry(
                KIND_BASE,
                LENGTH_BASE[sym - 257] as u32,
                LENGTH_EXTRA[sym - 257],
            ),
        };
        sym += 1;
    }
    entries
};

/// Table entry, less its code length, of every distance symbol.
static DIST_SYMBOLS: [u32; 32] = {
    let mut entries = [KIND_INVALID; 32];
    let mut sym = 0;
    while sym < 30 {
        entries[sym] = table_entry(KIND_BASE, DIST_BASE[sym] as u32, DIST_EXTRA[sym]);
        sym += 1;
    }
    entries
};

/// Table entry, less its code length, of every code-length symbol.
static CLEN_SYMBOLS: [u32; 19] = {
    let mut entries = [0; 19];
    let mut sym = 0;
    while sym < 19 {
        entries[sym] = table_entry(KIND_LITERAL, sym as u32, 0);
        sym += 1;
    }
    entries
};

/// Fill `table` with the two-level decode table of the canonical Huffman
/// code whose code lengths (each ≤ 15) are `lengths`; `symbols[s]` is
/// symbol `s`'s entry less its code length.
///
/// The primary table has `2^primary` entries indexed by the next `primary`
/// stream bits. A code no longer than that fills every slot its bits
/// prefix. A longer code's slot points at a subtable indexed by the bits
/// after the primary ones, sized for the longest code sharing that prefix.
/// Slots no code reaches stay [`KIND_INVALID`]. Over-subscribed codes are
/// rejected; incomplete ones are kept (RFC 1951 allows a single-symbol
/// distance code), and their unassigned codes fail when decoded.
fn build_table(
    table: &mut Vec<u32>,
    lengths: &[u8],
    symbols: &[u32],
    primary: u32,
) -> Result<(), DecodeError> {
    let mut count = [0u16; 16];
    for &l in lengths {
        count[usize::from(l)] += 1;
    }
    let mut left = 1i32;
    for &n in &count[1..] {
        left = (left << 1) - i32::from(n);
        if left < 0 {
            return Err(DecodeError::Corrupt("over-subscribed Huffman code"));
        }
    }
    // Symbols in canonical order: by code length, then by symbol.
    let mut offsets = [0u16; 16];
    for len in 1..15 {
        offsets[len + 1] = offsets[len] + count[len];
    }
    let mut sorted = [0u16; 288];
    for (sym, &l) in lengths.iter().enumerate() {
        if l != 0 {
            sorted[usize::from(offsets[usize::from(l)])] = sym as u16;
            offsets[usize::from(l)] += 1;
        }
    }
    let used = usize::from(offsets[15]);
    let max_len = (1..16).rev().find(|&l| count[l] != 0).unwrap_or(0) as u32;

    table.clear();
    table.resize(1 << primary, KIND_INVALID);
    let mut remaining = count;
    let mut code = 0u32;
    let mut prev_len = 0u32;
    let (mut sub_prefix, mut sub_start, mut sub_bits) = (usize::MAX, 0usize, 0u32);
    for &sym in &sorted[..used] {
        let len = u32::from(lengths[usize::from(sym)]);
        // Canonical codes count up within a length and shift left between
        // lengths; the stream carries them MSB first, hence the reversal.
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        }
        prev_len = len;
        let reversed = (code.reverse_bits() >> (32 - len)) as usize;
        let entry = symbols[usize::from(sym)] | len;
        if len <= primary {
            for slot in table[..1 << primary]
                .iter_mut()
                .skip(reversed)
                .step_by(1 << len)
            {
                *slot = entry;
            }
        } else {
            let prefix = reversed & ((1 << primary) - 1);
            if prefix != sub_prefix {
                // Smallest subtable the codes left to place can fill: grow
                // it until they cover its code space, or to the longest code.
                let mut bits = len - primary;
                let mut space = 1i32 << bits;
                while bits + primary < max_len {
                    space -= i32::from(remaining[(bits + primary) as usize]);
                    if space <= 0 {
                        break;
                    }
                    bits += 1;
                    space <<= 1;
                }
                sub_prefix = prefix;
                sub_start = table.len();
                sub_bits = bits;
                table.resize(sub_start + (1 << bits), KIND_INVALID);
                table[prefix] = table_entry(KIND_SUBTABLE, sub_start as u32, bits as u8);
            }
            for slot in table[sub_start..sub_start + (1 << sub_bits)]
                .iter_mut()
                .skip(reversed >> primary)
                .step_by(1 << (len - primary))
            {
                *slot = entry;
            }
        }
        remaining[len as usize] -= 1;
    }
    Ok(())
}

/// The entry for the code at the front of `buf`.
#[inline(always)]
fn lookup<const PRIMARY: u32>(table: &[u32], buf: u64) -> u32 {
    let entry = table[(buf & ((1 << PRIMARY) - 1)) as usize];
    if entry & KIND_MASK != KIND_SUBTABLE {
        return entry;
    }
    let width = (entry >> 4) & 15;
    let index = (entry >> 16) as usize + ((buf >> PRIMARY) & ((1 << width) - 1)) as usize;
    table[index]
}

/// Decode tables of one Huffman block.
#[derive(Default)]
struct BlockTables {
    lit: Vec<u32>,
    dist: Vec<u32>,
}

/// The fixed-Huffman block's tables, built once per process.
fn fixed_tables() -> &'static BlockTables {
    static FIXED: std::sync::OnceLock<BlockTables> = std::sync::OnceLock::new();
    FIXED.get_or_init(|| {
        let mut tables = BlockTables::default();
        build_table(&mut tables.lit, &FIXED_LIT_LENGTHS, &LIT_SYMBOLS, LIT_BITS)
            .and_then(|()| {
                build_table(
                    &mut tables.dist,
                    &FIXED_DIST_LENGTHS,
                    &DIST_SYMBOLS,
                    DIST_BITS,
                )
            })
            .expect("the fixed Huffman codes are valid");
        tables
    })
}

/// Inflate a raw DEFLATE stream (all three block types).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    decompress_with_capacity(data, 0)
}

/// [`decompress`], with the output buffer reserved up front for `hint`
/// bytes — the caller's expected output size. The reservation is capped at
/// [`HINT_EXPANSION`] (64) times the input, so an untrusted hint cannot
/// reserve much more than the input's own size; past the reservation the
/// output grows as usual. The hint never changes the result.
pub fn decompress_with_capacity(data: &[u8], hint: usize) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(hint.min(data.len().saturating_mul(HINT_EXPANSION)));
    let mut bits = Bits::new(data);
    let mut dynamic = BlockTables::default();
    loop {
        bits.refill();
        let header = bits.take(3)?;
        match header >> 1 {
            0 => inflate_stored(&mut bits, &mut out)?,
            1 => inflate_block(&mut bits, fixed_tables(), &mut out)?,
            2 => {
                read_dynamic_tables(&mut bits, &mut dynamic)?;
                inflate_block(&mut bits, &dynamic, &mut out)?;
            }
            _ => return Err(DecodeError::Corrupt("reserved block type")),
        }
        if header & 1 == 1 {
            return Ok(out);
        }
    }
}

/// A stored block: LEN, NLEN, then LEN bytes copied straight from the input.
fn inflate_stored(bits: &mut Bits, out: &mut Vec<u8>) -> Result<(), DecodeError> {
    let at = bits.align_to_byte();
    let header = bits
        .data
        .get(at..at + 4)
        .ok_or(DecodeError::Corrupt("unexpected end of stream"))?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(DecodeError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let end = at + 4 + usize::from(len);
    let body = bits
        .data
        .get(at + 4..end)
        .ok_or(DecodeError::Corrupt("unexpected end of stream"))?;
    out.extend_from_slice(body);
    bits.pos = end;
    Ok(())
}

/// Read a dynamic block's code-length code and code lengths, and build its
/// literal/length and distance tables into `tables`.
fn read_dynamic_tables(bits: &mut Bits, tables: &mut BlockTables) -> Result<(), DecodeError> {
    let hlit = bits.take(5)? as usize + 257;
    let hdist = bits.take(5)? as usize + 1;
    let hclen = bits.take(4)? as usize + 4;
    let mut clen_lengths = [0u8; 19];
    for &idx in CLEN_ORDER.iter().take(hclen) {
        bits.refill();
        clen_lengths[idx] = bits.take(3)? as u8;
    }
    let mut clen_table = Vec::with_capacity(1 << CLEN_BITS);
    build_table(&mut clen_table, &clen_lengths, &CLEN_SYMBOLS, CLEN_BITS)?;
    let total = hlit + hdist;
    let mut lengths = [0u8; 288 + 32];
    let mut n = 0;
    while n < total {
        bits.refill();
        let entry = clen_table[bits.peek(CLEN_BITS) as usize];
        if entry & KIND_MASK == KIND_INVALID {
            return Err(DecodeError::Corrupt("invalid Huffman code"));
        }
        bits.consume(entry & 15)?;
        let (value, repeat) = match entry >> 16 {
            sym @ 0..=15 => (sym as u8, 1),
            16 => {
                let last = *n
                    .checked_sub(1)
                    .and_then(|i| lengths.get(i))
                    .ok_or(DecodeError::Corrupt("repeat with no previous length"))?;
                (last, 3 + bits.take(2)? as usize)
            }
            17 => (0, 3 + bits.take(3)? as usize),
            _ => (0, 11 + bits.take(7)? as usize),
        };
        if n + repeat > total {
            return Err(DecodeError::Corrupt("code length overrun"));
        }
        lengths[n..n + repeat].fill(value);
        n += repeat;
    }
    build_table(&mut tables.lit, &lengths[..hlit], &LIT_SYMBOLS, LIT_BITS)?;
    build_table(
        &mut tables.dist,
        &lengths[hlit..total],
        &DIST_SYMBOLS,
        DIST_BITS,
    )
}

/// Decode one Huffman block's symbols into `out`, up to its end-of-block.
fn inflate_block(
    bits: &mut Bits,
    tables: &BlockTables,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let (lit, dist) = (tables.lit.as_slice(), tables.dist.as_slice());
    loop {
        bits.refill();
        let entry = lookup::<LIT_BITS>(lit, bits.buf);
        bits.consume(entry & 15)?;
        match entry & KIND_MASK {
            KIND_LITERAL => out.push((entry >> 16) as u8),
            KIND_BASE => {
                let len = (entry >> 16) as usize + bits.take((entry >> 4) & 15)? as usize;
                let entry = lookup::<DIST_BITS>(dist, bits.buf);
                bits.consume(entry & 15)?;
                if entry & KIND_MASK != KIND_BASE {
                    return Err(DecodeError::Corrupt("bad distance symbol"));
                }
                let d = (entry >> 16) as usize + bits.take((entry >> 4) & 15)? as usize;
                if d > out.len() {
                    return Err(DecodeError::Corrupt("distance beyond output"));
                }
                copy_match(out, d, len);
            }
            KIND_END => return Ok(()),
            _ => return Err(DecodeError::Corrupt("invalid Huffman code")),
        }
    }
}

/// Append `len` bytes copied from `d` bytes back (1 ≤ `d` ≤ `out.len()`).
#[inline(always)]
fn copy_match(out: &mut Vec<u8>, d: usize, len: usize) {
    let start = out.len() - d;
    if d >= len {
        out.extend_from_within(start..start + len);
        return;
    }
    // An overlapping match repeats its last `d` bytes: each pass copies
    // everything from the match start on, doubling the span.
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(out.len() - start);
        out.extend_from_within(start..start + take);
        remaining -= take;
    }
}

/// The codec this module's one replaced, kept verbatim as the oracle the
/// tests below hold it to.
///
/// * The compressor: byte-at-a-time matching over `usize` chains, linear
///   code scans, a boxed-tree Huffman builder, and both Huffman blocks
///   written in full to compare their lengths. [`compress`] must match it
///   byte for byte.
/// * The inflater: a 32-bit bit reader refilled a byte at a time, a 9-bit
///   lookup table, and a bit-at-a-time canonical walk for longer codes.
///   [`decompress`] must fail exactly where it fails and return the same
///   bytes everywhere else.
#[cfg(test)]
mod reference {
    use super::{
        hash3, DecodeError, CLEN_ORDER, DIST_BASE, DIST_EXTRA, FIXED_DIST_LENGTHS,
        FIXED_LIT_LENGTHS, HASH_BITS, LENGTH_BASE, LENGTH_EXTRA, MAX_MATCH, MIN_MATCH, WINDOW,
    };

    /// Map a match length (3..=258) to (code index, extra bits value).
    pub fn length_to_code(len: u16) -> (usize, u16) {
        debug_assert!((3..=258).contains(&len));
        let mut idx = LENGTH_BASE.len() - 1;
        for (i, &base) in LENGTH_BASE.iter().enumerate() {
            if base > len {
                idx = i - 1;
                break;
            }
        }
        if len == 258 {
            idx = 28;
        }
        (idx, len - LENGTH_BASE[idx])
    }

    /// Map a distance (1..=32768) to (code index, extra bits value).
    pub fn dist_to_code(dist: u16) -> (usize, u16) {
        debug_assert!(dist >= 1);
        let mut idx = DIST_BASE.len() - 1;
        for (i, &base) in DIST_BASE.iter().enumerate() {
            if base > dist {
                idx = i - 1;
                break;
            }
        }
        (idx, dist - DIST_BASE[idx])
    }

    struct BitWriter {
        out: Vec<u8>,
        acc: u32,
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

        /// Write `n` bits of `value`, LSB first (RFC 1951 bit order).
        fn write_bits(&mut self, value: u32, n: u32) {
            self.acc |= value << self.nbits;
            self.nbits += n;
            while self.nbits >= 8 {
                self.out.push(self.acc as u8);
                self.acc >>= 8;
                self.nbits -= 8;
            }
        }

        /// Write a Huffman code: the code's bits go MSB-first into the stream.
        fn write_code(&mut self, code: u32, n: u32) {
            let mut reversed = 0u32;
            for i in 0..n {
                reversed |= ((code >> i) & 1) << (n - 1 - i);
            }
            self.write_bits(reversed, n);
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.out.push(self.acc as u8);
            }
            self.out
        }
    }

    /// Assign canonical codes (encoder side) from code lengths.
    fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
        let mut count = [0u32; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut next = [0u32; 16];
        let mut code = 0u32;
        for len in 1..16 {
            code = (code + count[len - 1]) << 1;
            next[len] = code;
        }
        lengths
            .iter()
            .map(|&l| {
                if l == 0 {
                    0
                } else {
                    let c = next[l as usize];
                    next[l as usize] += 1;
                    c
                }
            })
            .collect()
    }

    /// One LZ77 token.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum LzToken {
        Literal(u8),
        Match { len: u16, dist: u16 },
    }

    /// Greedy LZ77 tokenizer with a hash-chain match finder.
    #[allow(clippy::needless_range_loop)] // hash-chain updates index three arrays in lockstep
    fn lz77_tokens(data: &[u8]) -> Vec<LzToken> {
        let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut candidate = head[h];
                let mut chain = 0;
                while candidate != usize::MAX && i - candidate <= WINDOW && chain < 32 {
                    let max_len = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0;
                    while l < max_len && data[candidate + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - candidate;
                        if l == max_len {
                            break;
                        }
                    }
                    candidate = prev[candidate];
                    chain += 1;
                }
                prev[i] = head[h];
                head[h] = i;
            }
            if best_len >= MIN_MATCH {
                tokens.push(LzToken::Match {
                    len: best_len as u16,
                    dist: best_dist as u16,
                });
                // Insert hash entries for the skipped positions so later matches
                // can reference them.
                for j in i + 1..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                    let h = hash3(data, j);
                    prev[j] = head[h];
                    head[h] = j;
                }
                i += best_len;
            } else {
                tokens.push(LzToken::Literal(data[i]));
                i += 1;
            }
        }
        tokens
    }

    /// Emit tokens with the given literal/length and distance codes.
    fn write_tokens(
        w: &mut BitWriter,
        tokens: &[LzToken],
        lit_codes: &[u32],
        lit_lengths: &[u8],
        dist_codes: &[u32],
        dist_lengths: &[u8],
    ) {
        for &token in tokens {
            match token {
                LzToken::Literal(b) => {
                    w.write_code(lit_codes[b as usize], lit_lengths[b as usize] as u32);
                }
                LzToken::Match { len, dist } => {
                    let (lcode, lextra) = length_to_code(len);
                    let sym = 257 + lcode;
                    w.write_code(lit_codes[sym], lit_lengths[sym] as u32);
                    w.write_bits(lextra as u32, LENGTH_EXTRA[lcode] as u32);
                    let (dcode, dextra) = dist_to_code(dist);
                    w.write_code(dist_codes[dcode], dist_lengths[dcode] as u32);
                    w.write_bits(dextra as u32, DIST_EXTRA[dcode] as u32);
                }
            }
        }
        w.write_code(lit_codes[256], lit_lengths[256] as u32); // end of block
    }

    /// Depth-limited Huffman code lengths from frequencies (heap-built, with
    /// the classic scale-and-retry fallback when a code exceeds `max_len`).
    pub fn huffman_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
        #[derive(PartialEq, Eq)]
        struct Node(u64, usize, NodeKind);
        #[derive(PartialEq, Eq)]
        enum NodeKind {
            Leaf(usize),
            Internal(Box<Node>, Box<Node>),
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.cmp(&self.0).then(other.1.cmp(&self.1))
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
                    heap.push(Node(w, id, NodeKind::Leaf(sym)));
                    id += 1;
                }
            }
            let mut lengths = vec![0u8; freqs.len()];
            match heap.len() {
                0 => return lengths,
                1 => {
                    if let Some(Node(_, _, NodeKind::Leaf(sym))) = heap.pop() {
                        lengths[sym] = 1;
                    }
                    return lengths;
                }
                _ => {}
            }
            while heap.len() > 1 {
                let a = heap.pop().unwrap();
                let b = heap.pop().unwrap();
                heap.push(Node(
                    a.0 + b.0,
                    id,
                    NodeKind::Internal(Box::new(a), Box::new(b)),
                ));
                id += 1;
            }
            let root = heap.pop().unwrap();
            let mut deepest = 0u8;
            let mut stack = vec![(&root, 0u8)];
            while let Some((node, depth)) = stack.pop() {
                match &node.2 {
                    NodeKind::Leaf(sym) => {
                        lengths[*sym] = depth.max(1);
                        deepest = deepest.max(depth);
                    }
                    NodeKind::Internal(a, b) => {
                        stack.push((a, depth + 1));
                        stack.push((b, depth + 1));
                    }
                }
            }
            if deepest <= max_len {
                return lengths;
            }
            for w in scaled.iter_mut() {
                if *w > 0 {
                    *w = *w / 2 + 1;
                }
            }
        }
    }

    /// Build one dynamic-Huffman block (RFC 1951 §3.2.7) around the tokens.
    fn compress_dynamic_block(tokens: &[LzToken]) -> Vec<u8> {
        // Symbol frequencies.
        let mut lit_freqs = vec![0u64; 286];
        let mut dist_freqs = vec![0u64; 30];
        lit_freqs[256] = 1; // end-of-block
        for &token in tokens {
            match token {
                LzToken::Literal(b) => lit_freqs[b as usize] += 1,
                LzToken::Match { len, dist } => {
                    lit_freqs[257 + length_to_code(len).0] += 1;
                    dist_freqs[dist_to_code(dist).0] += 1;
                }
            }
        }
        let lit_lengths = huffman_code_lengths(&lit_freqs, 15);
        let mut dist_lengths = huffman_code_lengths(&dist_freqs, 15);
        if dist_lengths.iter().all(|&l| l == 0) {
            dist_lengths[0] = 1; // HDIST ≥ 1: emit one unused distance code
        }
        let lit_codes = canonical_codes(&lit_lengths);
        let dist_codes = canonical_codes(&dist_lengths);

        // Trim trailing zero lengths (but respect the minimums).
        let hlit = (257..=286)
            .rev()
            .find(|&n| n == 257 || lit_lengths[n - 1] != 0)
            .unwrap();
        let hdist = (1..=30)
            .rev()
            .find(|&n| n == 1 || dist_lengths[n - 1] != 0)
            .unwrap();

        // RLE-encode the concatenated code lengths with symbols 16/17/18.
        let mut all_lengths: Vec<u8> = Vec::with_capacity(hlit + hdist);
        all_lengths.extend_from_slice(&lit_lengths[..hlit]);
        all_lengths.extend_from_slice(&dist_lengths[..hdist]);
        let mut rle: Vec<(u8, u32, u32)> = Vec::new(); // (symbol, extra value, extra bits)
        let mut i = 0usize;
        while i < all_lengths.len() {
            let run_start = i;
            let value = all_lengths[i];
            while i < all_lengths.len() && all_lengths[i] == value {
                i += 1;
            }
            let mut run = i - run_start;
            if value == 0 {
                while run >= 11 {
                    let take = run.min(138);
                    rle.push((18, take as u32 - 11, 7));
                    run -= take;
                }
                while run >= 3 {
                    let take = run.min(10);
                    rle.push((17, take as u32 - 3, 3));
                    run -= take;
                }
                for _ in 0..run {
                    rle.push((0, 0, 0));
                }
            } else {
                rle.push((value, 0, 0));
                run -= 1;
                while run >= 3 {
                    let take = run.min(6);
                    rle.push((16, take as u32 - 3, 2));
                    run -= take;
                }
                for _ in 0..run {
                    rle.push((value, 0, 0));
                }
            }
        }
        // Code-length code.
        let mut clen_freqs = vec![0u64; 19];
        for &(sym, _, _) in &rle {
            clen_freqs[sym as usize] += 1;
        }
        let clen_lengths = huffman_code_lengths(&clen_freqs, 7);
        let clen_codes = canonical_codes(&clen_lengths);
        let hclen = (4..=19)
            .rev()
            .find(|&n| n == 4 || clen_lengths[CLEN_ORDER[n - 1]] != 0)
            .unwrap();

        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(2, 2); // BTYPE=10 dynamic Huffman
        w.write_bits((hlit - 257) as u32, 5);
        w.write_bits((hdist - 1) as u32, 5);
        w.write_bits((hclen - 4) as u32, 4);
        for &idx in CLEN_ORDER.iter().take(hclen) {
            w.write_bits(clen_lengths[idx] as u32, 3);
        }
        for &(sym, extra, extra_bits) in &rle {
            w.write_code(clen_codes[sym as usize], clen_lengths[sym as usize] as u32);
            if extra_bits > 0 {
                w.write_bits(extra, extra_bits);
            }
        }
        write_tokens(
            &mut w,
            tokens,
            &lit_codes,
            &lit_lengths,
            &dist_codes,
            &dist_lengths,
        );
        w.finish()
    }

    /// Build one fixed-Huffman block around the tokens.
    fn compress_fixed_block(tokens: &[LzToken]) -> Vec<u8> {
        let lit_lengths = FIXED_LIT_LENGTHS.to_vec();
        let lit_codes = canonical_codes(&lit_lengths);
        let dist_lengths = [5u8; 30];
        let dist_codes: Vec<u32> = (0..30).collect();
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(1, 2); // BTYPE=01 fixed Huffman
        write_tokens(
            &mut w,
            tokens,
            &lit_codes,
            &lit_lengths,
            &dist_codes,
            &dist_lengths,
        );
        w.finish()
    }

    /// Compress with greedy LZ77, choosing per input between a dynamic-Huffman
    /// block, a fixed-Huffman block, and stored blocks — whichever is smallest,
    /// exactly like a real deflater's block-type decision.
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let tokens = lz77_tokens(data);
        let fixed = compress_fixed_block(&tokens);
        let dynamic = compress_dynamic_block(&tokens);
        let best = if dynamic.len() < fixed.len() {
            dynamic
        } else {
            fixed
        };
        // Stored fallback: 5-byte header per 65535-byte chunk.
        let stored_size = 1 + data.len() + 5 * data.len().div_ceil(65535).max(1);
        if best.len() <= stored_size {
            return best;
        }
        compress_stored(data)
    }

    /// Emit stored (uncompressed) blocks only.
    pub fn compress_stored(data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[]]
        } else {
            data.chunks(65535).collect()
        };
        for (idx, chunk) in chunks.iter().enumerate() {
            let last = idx == chunks.len() - 1;
            w.write_bits(last as u32, 1);
            w.write_bits(0, 2); // BTYPE=00
                                // Align to byte boundary.
            if w.nbits > 0 {
                w.write_bits(0, 8 - w.nbits);
            }
            let len = chunk.len() as u16;
            w.write_bits(len as u32 & 0xff, 8);
            w.write_bits((len >> 8) as u32, 8);
            w.write_bits(!len as u32 & 0xff, 8);
            w.write_bits((!len >> 8) as u32, 8);
            for &b in *chunk {
                w.write_bits(b as u32, 8);
            }
        }
        w.finish()
    }

    // --- inflater -------------------------------------------------------------

    struct BitReader<'a> {
        data: &'a [u8],
        pos: usize,
        acc: u32,
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

        fn read_bits(&mut self, n: u32) -> Result<u32, DecodeError> {
            while self.nbits < n {
                let byte = *self
                    .data
                    .get(self.pos)
                    .ok_or(DecodeError::Corrupt("unexpected end of stream"))?;
                self.acc |= (byte as u32) << self.nbits;
                self.nbits += 8;
                self.pos += 1;
            }
            let value = self.acc & ((1u32 << n) - 1);
            self.acc >>= n;
            self.nbits -= n;
            Ok(value)
        }

        /// Look at the next `n` bits without consuming them, zero-padded past
        /// the end of input (the fast Huffman path checks availability when it
        /// consumes).
        fn peek_bits(&mut self, n: u32) -> u32 {
            while self.nbits < n {
                let Some(&byte) = self.data.get(self.pos) else {
                    break;
                };
                self.acc |= (byte as u32) << self.nbits;
                self.nbits += 8;
                self.pos += 1;
            }
            self.acc & ((1u32 << n) - 1)
        }

        /// Consume `n` already-peeked bits.
        fn consume(&mut self, n: u32) -> Result<(), DecodeError> {
            if self.nbits < n {
                return Err(DecodeError::Corrupt("unexpected end of stream"));
            }
            self.acc >>= n;
            self.nbits -= n;
            Ok(())
        }

        /// Skip to the next byte boundary (stored blocks). Only the partial
        /// byte goes: whole bytes already buffered by a Huffman peek are kept.
        fn align(&mut self) {
            let partial = self.nbits % 8;
            self.acc >>= partial;
            self.nbits -= partial;
        }

        fn read_u16_le(&mut self) -> Result<u16, DecodeError> {
            let lo = self.read_bits(8)?;
            let hi = self.read_bits(8)?;
            Ok((hi as u16) << 8 | lo as u16)
        }
    }

    // --- canonical Huffman decoding (puff-style) --------------------------------

    /// Codes up to this many bits decode through one table lookup; longer (or
    /// invalid) codes fall back to the canonical bit-at-a-time walk.
    const FAST_BITS: u32 = 9;

    /// A canonical Huffman code built from symbol code lengths.
    struct HuffmanCode {
        /// count[len] = number of symbols with that code length.
        count: [u16; 16],
        /// Symbols sorted by (length, symbol).
        symbols: Vec<u16>,
        /// Direct-lookup table over the next `FAST_BITS` stream bits:
        /// `(code_len << 12) | symbol`, or 0 for "take the slow path".
        table: Vec<u16>,
    }

    impl HuffmanCode {
        #[allow(clippy::needless_range_loop)] // bit-length indices mirror RFC 1951 §3.2.2
        fn from_lengths(lengths: &[u8]) -> Result<Self, DecodeError> {
            let mut count = [0u16; 16];
            for &l in lengths {
                if l > 15 {
                    return Err(DecodeError::Corrupt("code length > 15"));
                }
                count[l as usize] += 1;
            }
            // Over-subscribed codes are corrupt; incomplete codes are tolerated
            // (RFC permits a single-symbol distance code).
            let mut left = 1i32;
            for len in 1..16 {
                left <<= 1;
                left -= count[len] as i32;
                if left < 0 {
                    return Err(DecodeError::Corrupt("over-subscribed Huffman code"));
                }
            }
            let mut offsets = [0u16; 16];
            for len in 1..15 {
                offsets[len + 1] = offsets[len] + count[len];
            }
            let mut symbols = vec![0u16; lengths.len()];
            for (sym, &l) in lengths.iter().enumerate() {
                if l != 0 {
                    symbols[offsets[l as usize] as usize] = sym as u16;
                    offsets[l as usize] += 1;
                }
            }
            // Fast-lookup table: assign canonical codes, then seed every table
            // slot whose low bits equal the code's stream form (codes enter the
            // stream MSB-first, so the index is the bit-reversed code).
            let mut table = vec![0u16; 1 << FAST_BITS];
            let mut next = [0u32; 16];
            let mut code = 0u32;
            for len in 1..16 {
                // count[0] tallies unused symbols; it does not advance the code.
                let prior = if len == 1 { 0 } else { count[len - 1] as u32 };
                code = (code + prior) << 1;
                next[len] = code;
            }
            for (sym, &l) in lengths.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                let c = next[l as usize];
                next[l as usize] += 1;
                let l = l as u32;
                if l > FAST_BITS {
                    continue;
                }
                let mut rev = 0u32;
                for i in 0..l {
                    rev |= ((c >> i) & 1) << (l - 1 - i);
                }
                let entry = ((l as u16) << 12) | sym as u16;
                let mut idx = rev;
                while idx < (1 << FAST_BITS) {
                    table[idx as usize] = entry;
                    idx += 1 << l;
                }
            }
            Ok(HuffmanCode {
                count,
                symbols,
                table,
            })
        }

        fn decode(&self, reader: &mut BitReader) -> Result<u16, DecodeError> {
            let entry = self.table[reader.peek_bits(FAST_BITS) as usize];
            if entry != 0 {
                reader.consume((entry >> 12) as u32)?;
                return Ok(entry & 0x0fff);
            }
            self.decode_slow(reader)
        }

        fn decode_slow(&self, reader: &mut BitReader) -> Result<u16, DecodeError> {
            let mut code = 0i32;
            let mut first = 0i32;
            let mut index = 0i32;
            for len in 1..16 {
                code |= reader.read_bits(1)? as i32;
                let cnt = self.count[len] as i32;
                if code - cnt < first {
                    return Ok(self.symbols[(index + (code - first)) as usize]);
                }
                index += cnt;
                first += cnt;
                first <<= 1;
                code <<= 1;
            }
            Err(DecodeError::Corrupt("invalid Huffman code"))
        }
    }

    /// Inflate a raw DEFLATE stream (all three block types).
    pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();
        loop {
            let bfinal = r.read_bits(1)?;
            let btype = r.read_bits(2)?;
            match btype {
                0 => {
                    r.align();
                    let len = r.read_u16_le()?;
                    let nlen = r.read_u16_le()?;
                    if len != !nlen {
                        return Err(DecodeError::Corrupt("stored block LEN/NLEN mismatch"));
                    }
                    for _ in 0..len {
                        out.push(r.read_bits(8)? as u8);
                    }
                }
                1 => {
                    let lit = HuffmanCode::from_lengths(&FIXED_LIT_LENGTHS)?;
                    let dist = HuffmanCode::from_lengths(&FIXED_DIST_LENGTHS)?;
                    inflate_block(&mut r, &lit, &dist, &mut out)?;
                }
                2 => {
                    let (lit, dist) = read_dynamic_tables(&mut r)?;
                    inflate_block(&mut r, &lit, &dist, &mut out)?;
                }
                _ => return Err(DecodeError::Corrupt("reserved block type")),
            }
            if bfinal == 1 {
                break;
            }
        }
        Ok(out)
    }

    fn read_dynamic_tables(r: &mut BitReader) -> Result<(HuffmanCode, HuffmanCode), DecodeError> {
        let hlit = r.read_bits(5)? as usize + 257;
        let hdist = r.read_bits(5)? as usize + 1;
        let hclen = r.read_bits(4)? as usize + 4;
        let mut clen_lengths = [0u8; 19];
        for &idx in CLEN_ORDER.iter().take(hclen) {
            clen_lengths[idx] = r.read_bits(3)? as u8;
        }
        let clen_code = HuffmanCode::from_lengths(&clen_lengths)?;
        let mut lengths = Vec::with_capacity(hlit + hdist);
        while lengths.len() < hlit + hdist {
            let sym = clen_code.decode(r)?;
            match sym {
                0..=15 => lengths.push(sym as u8),
                16 => {
                    let &last = lengths
                        .last()
                        .ok_or(DecodeError::Corrupt("repeat with no previous length"))?;
                    let n = 3 + r.read_bits(2)?;
                    lengths.extend(std::iter::repeat_n(last, n as usize));
                }
                17 => {
                    let n = 3 + r.read_bits(3)?;
                    lengths.extend(std::iter::repeat_n(0u8, n as usize));
                }
                18 => {
                    let n = 11 + r.read_bits(7)?;
                    lengths.extend(std::iter::repeat_n(0u8, n as usize));
                }
                _ => return Err(DecodeError::Corrupt("bad code-length symbol")),
            }
        }
        if lengths.len() != hlit + hdist {
            return Err(DecodeError::Corrupt("code length overrun"));
        }
        let lit = HuffmanCode::from_lengths(&lengths[..hlit])?;
        let dist = HuffmanCode::from_lengths(&lengths[hlit..])?;
        Ok((lit, dist))
    }

    fn inflate_block(
        r: &mut BitReader,
        lit: &HuffmanCode,
        dist: &HuffmanCode,
        out: &mut Vec<u8>,
    ) -> Result<(), DecodeError> {
        loop {
            let sym = lit.decode(r)?;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => return Ok(()),
                257..=285 => {
                    let lidx = sym as usize - 257;
                    let len = LENGTH_BASE[lidx] as usize
                        + r.read_bits(LENGTH_EXTRA[lidx] as u32)? as usize;
                    let dsym = dist.decode(r)? as usize;
                    if dsym >= 30 {
                        return Err(DecodeError::Corrupt("bad distance symbol"));
                    }
                    let d =
                        DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                    if d > out.len() {
                        return Err(DecodeError::Corrupt("distance beyond output"));
                    }
                    // Chunked copy: each pass can take everything between the
                    // match start and the current end, so overlapping matches
                    // (d < len) double the copied span per pass.
                    let start = out.len() - d;
                    let mut remaining = len;
                    while remaining > 0 {
                        let take = remaining.min(out.len() - start);
                        out.extend_from_within(start..start + take);
                        remaining -= take;
                    }
                }
                _ => return Err(DecodeError::Corrupt("bad literal/length symbol")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_assorted_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"foo@mydom.com".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            (0..=255u8).cycle().take(100_000).collect(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
        ];
        for input in inputs {
            let compressed = compress(&input);
            assert_eq!(
                decompress(&compressed).unwrap(),
                input,
                "len={}",
                input.len()
            );
        }
    }

    #[test]
    fn repetitive_input_actually_compresses() {
        let input = b"email=foo@mydom.com&".repeat(50);
        let compressed = compress(&input);
        assert!(
            compressed.len() < input.len() / 4,
            "compressed {} of {}",
            compressed.len(),
            input.len()
        );
    }

    #[test]
    fn stored_blocks_roundtrip() {
        let input: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let stored = compress_stored(&input);
        assert_eq!(decompress(&stored).unwrap(), input);
    }

    #[test]
    fn known_fixed_huffman_stream_decodes() {
        // 0x4b 0x4c 0x4a 0x06 0x00 is zlib's raw-deflate of "abc"
        // (fixed Huffman, final block).
        assert_eq!(decompress(&[0x4b, 0x4c, 0x4a, 0x06, 0x00]).unwrap(), b"abc");
    }

    #[test]
    fn known_dynamic_stream_decodes() {
        // zlib raw-deflate (level 9) of 100 × 'a' uses a dynamic block:
        // printf 'a%.0s' {1..100} | pigz -9 --zlib … captured bytes below.
        // Stream: dynamic header encoding only 'a', a match, and EOB.
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        let compressed = compress(data);
        assert_eq!(decompress(&compressed).unwrap(), data.as_slice());
    }

    #[test]
    fn truncated_stream_errors() {
        let compressed = compress(b"hello world hello world");
        assert!(decompress(&compressed[..compressed.len() - 2]).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn corrupt_stored_header_errors() {
        // BTYPE=00 with LEN != !NLEN.
        let bad = [0x01, 0x05, 0x00, 0x00, 0x00];
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn overlapping_match_copies_correctly() {
        // RLE-style: distance 1, long length ("aaaa…" uses overlap).
        let input = vec![b'x'; 1000];
        let compressed = compress(&input);
        assert!(compressed.len() < 40);
        assert_eq!(decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn dynamic_block_beats_fixed_on_skewed_text() {
        // Lowercase English text is exactly where dynamic codes win.
        let input = b"persistent pii leakage based web tracking ".repeat(60);
        let tokens = lz77_tokens(&input);
        let stats = BlockStats::count(&tokens);
        let header = DynamicHeader::build(&stats);
        let dynamic = write_dynamic_block(&header, &tokens, header.block_bits(&stats));
        let fixed = write_fixed_block(&tokens, stats.fixed_block_bits());
        assert!(
            dynamic.len() < fixed.len(),
            "dynamic {} !< fixed {}",
            dynamic.len(),
            fixed.len()
        );
        // And the public API picked it — plus the inflater reads it back.
        let compressed = compress(&input);
        assert_eq!(compressed.len(), dynamic.len());
        assert_eq!(decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn dynamic_block_handles_no_match_input() {
        // All-literal input (no distances): HDIST falls back to 1 unused code.
        let input: Vec<u8> = (0..=255u8).collect();
        let tokens = lz77_tokens(&input);
        assert!(tokens.iter().all(|t| matches!(t, LzToken::Literal(_))));
        let stats = BlockStats::count(&tokens);
        let header = DynamicHeader::build(&stats);
        let dynamic = write_dynamic_block(&header, &tokens, header.block_bits(&stats));
        assert_eq!(decompress(&dynamic).unwrap(), input);
    }

    #[test]
    fn huffman_code_lengths_are_kraft_valid() {
        let freqs: Vec<u64> = (0..60).map(|i| 1u64 << (i % 13)).collect();
        for max_len in [7u8, 15] {
            let lengths = huffman_code_lengths(&freqs, max_len);
            assert!(lengths.iter().all(|&l| l <= max_len));
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            assert!(kraft <= 1.0 + 1e-9, "over-subscribed: {kraft}");
        }
    }

    #[test]
    fn block_sizes_from_frequencies_are_exact() {
        // The block-type decision never writes the losing block, so the
        // computed sizes must be the written sizes to the bit.
        for input in [
            b"persistent pii leakage based web tracking ".repeat(60),
            (0..=255u8).collect(),
            low_entropy(9, 3, 40, 5000),
        ] {
            let tokens = lz77_tokens(&input);
            let stats = BlockStats::count(&tokens);
            let header = DynamicHeader::build(&stats);
            let bits = header.block_bits(&stats);
            assert_eq!(
                write_dynamic_block(&header, &tokens, bits).len() as u64,
                bits.div_ceil(8)
            );
            let bits = stats.fixed_block_bits();
            assert_eq!(
                write_fixed_block(&tokens, bits).len() as u64,
                bits.div_ceil(8)
            );
        }
    }

    #[test]
    fn code_tables_match_the_linear_scans() {
        for len in 3..=258u16 {
            let (code, extra) = reference::length_to_code(len);
            assert_eq!(length_code(len), code, "len {len}");
            assert_eq!(len - LENGTH_BASE[code], extra);
        }
        for dist in 1..=32768u16 {
            let (code, extra) = reference::dist_to_code(dist);
            assert_eq!(dist_code(dist), code, "dist {dist}");
            assert_eq!(dist - DIST_BASE[code], extra);
        }
    }

    #[test]
    fn huffman_code_lengths_match_the_reference() {
        // Ties, a single symbol, all-zero, and skews deep enough to force
        // the scale-and-retry path at both depth limits.
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0; 19],
            vec![0, 0, 5, 0],
            vec![1; 286],
            vec![3, 3, 3, 3, 1, 1],
            (0..60).map(|i| 1u64 << (i % 13)).collect(),
            (0..40u32).map(|i| 1u64 << i.min(35)).collect(),
        ];
        let mut fib = vec![1u64, 1];
        while fib.len() < 30 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        cases.push(fib);
        for freqs in &cases {
            for max_len in [7u8, 15] {
                if freqs.iter().filter(|&&f| f > 0).count() > 1 << max_len {
                    continue; // no code fits: both builders would retry forever
                }
                assert_eq!(
                    huffman_code_lengths(freqs, max_len),
                    reference::huffman_code_lengths(freqs, max_len),
                    "freqs {freqs:?} max_len {max_len}"
                );
            }
        }
    }

    /// Deterministic low-entropy bytes: letters from a small alphabet,
    /// mostly copied from `period` bytes back.
    fn low_entropy(seed: u64, alphabet: u8, period: usize, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if out.len() >= period && !x.is_multiple_of(4) {
                out.push(out[out.len() - period]);
            } else {
                out.push(b'a' + (x >> 32) as u8 % alphabet.max(1));
            }
        }
        out
    }

    fn assert_matches_reference(input: &[u8]) {
        let got = compress(input);
        let want = reference::compress(input);
        assert!(got == want, "compress diverged on {} bytes", input.len());
    }

    #[test]
    fn compress_matches_reference_on_tiny_inputs() {
        assert_matches_reference(&[]);
        for b in 0..=255u8 {
            assert_matches_reference(&[b]);
        }
        let bytes = [0u8, 1, b'a', 0x7f, 0x80, 0xff];
        for a in bytes {
            for b in bytes {
                assert_matches_reference(&[a, b]);
            }
        }
        assert_eq!(compress_stored(&[]), reference::compress_stored(&[]));
    }

    #[test]
    fn compress_matches_reference_past_the_window() {
        let noise: Vec<u8> = (0..WINDOW as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Noise repeated at exactly the window size: the only matches sit
        // at distance 32768.
        let mut repeated = noise.clone();
        repeated.extend_from_slice(&noise[..4096]);
        let tokens = lz77_tokens(&repeated);
        assert!(tokens.contains(&LzToken::Match {
            len: 258,
            dist: WINDOW as u16
        }));
        assert!(tokens
            .iter()
            .all(|t| !matches!(t, LzToken::Match { dist, .. } if *dist as usize > WINDOW)));
        // One byte further apart and nothing is in reach.
        let mut out_of_reach = noise.clone();
        out_of_reach.push(0);
        out_of_reach.extend_from_slice(&noise[..4096]);
        let mut runs = vec![b'x'; 70_000];
        runs.extend(std::iter::repeat_n(b'y', 259));
        runs.extend(low_entropy(5, 4, 300, 40_000));
        runs.extend(std::iter::repeat_n(b'z', 1000));
        let inputs = [
            repeated,
            out_of_reach,
            runs,
            noise.repeat(3),
            low_entropy(3, 2, 32_768, 90_000),
            low_entropy(4, 26, 32_769, 70_000),
        ];
        for input in &inputs {
            assert_matches_reference(input);
        }
        // Incompressible input over one stored chunk.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let wide: Vec<u8> = (0..140_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(compress(&wide), compress_stored(&wide));
        assert_matches_reference(&wide);
        assert_eq!(compress_stored(&wide), reference::compress_stored(&wide));
    }

    /// Every site segment of a seed-7 1x crawl, as the archive writer
    /// encodes it before compressing: format-v2 site records, whose string
    /// table has already removed most of the repeats LZ77 used to find.
    fn seed_7_segments() -> &'static [Vec<u8>] {
        static SEGMENTS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        SEGMENTS.get_or_init(|| {
            use pii_web::{Universe, UniverseSpec};
            let universe = Universe::generate_with(UniverseSpec {
                seed: 7,
                ..UniverseSpec::default()
            });
            let mut crawler = pii_crawler::Crawler::new(&universe);
            crawler.workers = 1;
            let dataset = crawler.run(pii_browser::profiles::BrowserKind::Firefox88Vanilla);
            assert_eq!(dataset.crawls.len(), universe.sites.len());
            dataset
                .crawls
                .iter()
                .map(|crawl| {
                    let mut raw = Vec::new();
                    pii_store::fast::encode_site_crawl(crawl, &mut raw);
                    raw
                })
                .collect()
        })
    }

    /// The archive's real input: every v2 site record of a seed-7 crawl
    /// compresses to the reference's bytes.
    #[test]
    fn compress_matches_reference_on_every_seed_7_segment() {
        for raw in seed_7_segments() {
            assert_matches_reference(raw);
        }
    }

    proptest! {
        #[test]
        fn compress_matches_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            prop_assert!(compress(&data) == reference::compress(&data));
        }

        #[test]
        fn compress_matches_reference_on_low_entropy_bytes(
            seed in any::<u64>(),
            alphabet in 1u8..6,
            period in 1usize..400,
            len in 0usize..12_000,
        ) {
            let data = low_entropy(seed, alphabet, period, len);
            prop_assert!(compress(&data) == reference::compress(&data));
        }

        #[test]
        fn decompress_is_total_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let _ = decompress(&data);
            // The three block-type prefixes, to reach past the header.
            for btype in 0..3u8 {
                let mut typed = data.clone();
                typed.insert(0, btype << 1);
                let _ = decompress(&typed);
            }
        }

        #[test]
        fn decompress_is_total_on_bit_flipped_streams(
            seed in any::<u64>(),
            len in 1usize..3000,
            flips in proptest::collection::vec(any::<u32>(), 1..8),
        ) {
            let data = low_entropy(seed, 5, 1 + (seed % 97) as usize, len);
            let mut stream = compress(&data);
            for &flip in &flips {
                let bit = flip as usize % (stream.len() * 8);
                stream[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decompress(&stream);
        }

        #[test]
        fn decompress_is_total_on_truncated_streams(
            seed in any::<u64>(),
            len in 1usize..3000,
            cut in any::<u32>(),
        ) {
            let data = low_entropy(seed, 7, 1 + (seed % 61) as usize, len);
            let stream = compress(&data);
            let cut = cut as usize % stream.len();
            prop_assert!(decompress(&stream[..cut]).is_err(), "cut {cut} of {}", stream.len());
        }
    }

    #[test]
    fn stored_block_after_a_huffman_block_starts_on_the_next_byte() {
        // A non-final dynamic block, then a final stored block whose header
        // starts mid-byte: the inflater must skip to the next byte boundary
        // and no further, however many bits it buffered past the
        // end-of-block code.
        for n in 1..=24u8 {
            let input: Vec<u8> = (0..n).map(|i| b'a' + i % 3).collect();
            let tokens = lz77_tokens(&input);
            let stats = BlockStats::count(&tokens);
            let header = DynamicHeader::build(&stats);
            let bits = header.block_bits(&stats);
            let block = write_dynamic_block(&header, &tokens, bits);
            let mut w = BitWriter::with_capacity(block.len() + 1);
            for (k, &byte) in block.iter().enumerate() {
                let take = (bits - 8 * k as u64).min(8) as u32;
                let byte = if k == 0 { byte & !1 } else { byte }; // BFINAL = 0
                w.write_bits(u32::from(byte) & ((1 << take) - 1), take);
            }
            w.write_bits(1, 1); // BFINAL
            w.write_bits(0, 2); // BTYPE=00 stored
            let mut stream = w.finish();
            stream.extend_from_slice(&4u16.to_le_bytes());
            stream.extend_from_slice(&(!4u16).to_le_bytes());
            stream.extend_from_slice(b"tail");
            let mut want = input.clone();
            want.extend_from_slice(b"tail");
            assert_eq!(decompress(&stream).unwrap(), want, "{n} literals");
        }
    }

    // --- the inflater against the reference ---------------------------------

    /// Both inflaters fail on `stream`, or both return the same bytes.
    fn inflates_like_reference(stream: &[u8]) -> bool {
        match (decompress(stream), reference::decompress(stream)) {
            (Ok(got), Ok(want)) => got == want,
            (Err(_), Err(_)) => true,
            _ => false,
        }
    }

    /// `stream` and damaged copies of it: every bit flip in the first and
    /// last eight bytes, `flips` more spread over the rest, and cuts at
    /// every eighth byte.
    fn assert_damage_inflates_like_reference(stream: &[u8], flips: usize) {
        assert!(inflates_like_reference(stream), "diverged on {stream:02x?}");
        let bits = stream.len() * 8;
        let edges = (0..bits.min(64)).chain(bits.saturating_sub(64)..bits);
        let spread = (0..flips).map(|k| (k * 7919 + 13) % bits.max(1));
        for bit in edges.chain(spread).filter(|_| bits > 0) {
            let mut damaged = stream.to_vec();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                inflates_like_reference(&damaged),
                "diverged with bit {bit} flipped in {stream:02x?}"
            );
        }
        for cut in (0..stream.len()).step_by(8) {
            assert!(
                inflates_like_reference(&stream[..cut]),
                "diverged when cut to {cut} of {} bytes",
                stream.len()
            );
        }
    }

    /// What the tokens decode to.
    fn expand(tokens: &[LzToken]) -> Vec<u8> {
        let mut out = Vec::new();
        for &token in tokens {
            match token {
                LzToken::Literal(b) => out.push(b),
                LzToken::Match { len, dist } => {
                    for _ in 0..len {
                        out.push(out[out.len() - dist as usize]);
                    }
                }
            }
        }
        out
    }

    /// Append `piece` to `w` as one block: 0 stored, 1 fixed Huffman, 2
    /// dynamic Huffman. Only the `last` block has BFINAL set.
    fn append_block(w: &mut BitWriter, piece: &[u8], btype: u8, last: bool) {
        if btype == 0 {
            w.write_bits(u32::from(last), 1);
            w.write_bits(0, 2);
            w.write_bits(0, (8 - w.nbits % 8) % 8);
            let len = piece.len() as u16;
            w.write_bits(u32::from(len), 16);
            w.write_bits(u32::from(!len), 16);
            for &b in piece {
                w.write_bits(u32::from(b), 8);
            }
            return;
        }
        let tokens = lz77_tokens(piece);
        let stats = BlockStats::count(&tokens);
        let (block, bits) = if btype == 1 {
            let bits = stats.fixed_block_bits();
            (write_fixed_block(&tokens, bits), bits)
        } else {
            let header = DynamicHeader::build(&stats);
            let bits = header.block_bits(&stats);
            (write_dynamic_block(&header, &tokens, bits), bits)
        };
        for (k, &byte) in block.iter().enumerate() {
            let take = (bits - 8 * k as u64).min(8) as u32;
            let byte = if k == 0 && !last { byte & !1 } else { byte };
            w.write_bits(u32::from(byte) & ((1 << take) - 1), take);
        }
    }

    #[test]
    fn stored_blocks_after_huffman_blocks_inflate_like_the_reference() {
        // Stored blocks long enough that the 8-byte refill has already
        // buffered into them when the Huffman block before them ends.
        for n in 1..=40usize {
            for (first, tail) in [(1u8, 4usize), (2, 4), (1, 40), (2, 300)] {
                let input = low_entropy(n as u64, 3, 1 + n % 5, n);
                let stored: Vec<u8> = (0..tail).map(|i| (i * 37) as u8).collect();
                let mut w = BitWriter::with_capacity(64);
                append_block(&mut w, &input, first, false);
                append_block(&mut w, &stored, 0, false);
                append_block(&mut w, &input, 1, true);
                let stream = w.finish();
                let want = [input.as_slice(), &stored, &input].concat();
                assert_eq!(
                    decompress(&stream).unwrap(),
                    want,
                    "{n} bytes, block {first}"
                );
                assert_damage_inflates_like_reference(&stream, 16);
            }
        }
    }

    #[test]
    fn codes_longer_than_the_primary_tables_inflate_like_the_reference() {
        // Fibonacci frequencies make the deepest Huffman trees. With the
        // end-of-block symbol's count of one in front, literal counts 1, 2,
        // 3, 5, … chain every merge, so the rarest literal gets a 15-bit
        // code (one more Fibonacci count would pass 15 and be flattened);
        // the distance counts reach past the 8-bit primary table too.
        let mut fib = vec![1usize, 2];
        while fib.len() < 14 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        // Output for every distance to reach back into, in one symbol.
        let mut tokens = vec![LzToken::Literal(0); 800];
        let mut body = Vec::new();
        for (i, &f) in fib.iter().enumerate() {
            body.extend(std::iter::repeat_n(LzToken::Literal(b'a' + i as u8), f));
            let dist = DIST_BASE[i];
            body.extend(std::iter::repeat_n(LzToken::Match { len: 3, dist }, f));
        }
        // A fixed shuffle, so no code's symbols arrive in one run.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..body.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            body.swap(i, (x % (i as u64 + 1)) as usize);
        }
        tokens.extend(body);
        let stats = BlockStats::count(&tokens);
        let header = DynamicHeader::build(&stats);
        let longest = |lengths: &[u8]| lengths.iter().copied().max().unwrap_or(0);
        assert_eq!(longest(&header.lit_lengths), 15);
        assert!(u32::from(longest(&header.dist_lengths)) > DIST_BITS);
        let stream = write_dynamic_block(&header, &tokens, header.block_bits(&stats));
        assert_eq!(decompress(&stream).unwrap(), expand(&tokens));
        assert_damage_inflates_like_reference(&stream, 2000);
    }

    #[test]
    fn an_unassigned_distance_code_fails_like_the_reference() {
        // One distance symbol gets the 1-bit code `0`; `1` is unassigned.
        let tokens = [
            LzToken::Literal(b'a'),
            LzToken::Literal(b'b'),
            LzToken::Match { len: 6, dist: 2 },
        ];
        let stats = BlockStats::count(&tokens);
        let header = DynamicHeader::build(&stats);
        assert_eq!(header.dist_lengths.iter().filter(|&&l| l != 0).count(), 1);
        let bits = header.block_bits(&stats);
        let stream = write_dynamic_block(&header, &tokens, bits);
        assert_eq!(decompress(&stream).unwrap(), b"abababab");
        assert!(inflates_like_reference(&stream));
        // The distance code follows the header, both literals and the
        // length code (length 6 has no extra bits).
        let header_bits = bits - stats.body_bits(&header.lit_lengths, &header.dist_lengths);
        let lit = |sym: usize| u64::from(header.lit_lengths[sym]);
        let at =
            (header_bits + lit(usize::from(b'a')) + lit(usize::from(b'b')) + lit(260)) as usize;
        let mut bad = stream.clone();
        bad[at / 8] ^= 1 << (at % 8);
        assert!(decompress(&bad).is_err());
        assert!(reference::decompress(&bad).is_err());
    }

    /// Every site payload of a seed-7 1x archive, and damaged copies of it.
    #[test]
    fn decompress_matches_reference_on_every_seed_7_payload() {
        for raw in seed_7_segments() {
            let payload = compress(raw);
            assert_eq!(&decompress(&payload).unwrap(), raw);
            assert_damage_inflates_like_reference(&payload, 8);
        }
    }

    #[test]
    fn the_capacity_hint_is_bounded_and_never_changes_the_result() {
        let input = low_entropy(11, 4, 30, 20_000);
        let stream = compress(&input);
        for hint in [
            0,
            1,
            input.len() - 1,
            input.len(),
            input.len() + 1,
            usize::MAX,
        ] {
            let out = decompress_with_capacity(&stream, hint).unwrap();
            assert_eq!(out, input, "hint {hint}");
        }
        // A hint reserves at most 64 times the input, however large it is.
        let out = decompress_with_capacity(&[0x03, 0x00], usize::MAX).unwrap();
        assert!(out.is_empty() && out.capacity() <= 2 * HINT_EXPANSION);
        let stored = [0x01, 0x04, 0x00, 0xfb, 0xff, b'a', b'b', b'c', b'd'];
        let out = decompress_with_capacity(&stored, usize::MAX).unwrap();
        assert_eq!(out, b"abcd");
        assert!(out.capacity() <= stored.len() * HINT_EXPANSION);
        assert!(decompress_with_capacity(&[], usize::MAX).is_err());
    }

    proptest! {
        #[test]
        fn decompress_matches_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            prop_assert!(inflates_like_reference(&data));
            // Each block type, final or not, to reach past the header.
            for header in 0..6u8 {
                let mut typed = data.clone();
                typed.insert(0, header);
                prop_assert!(inflates_like_reference(&typed), "header {header}: {typed:02x?}");
            }
        }

        #[test]
        fn decompress_matches_reference_on_damaged_streams(
            seed in any::<u64>(),
            len in 1usize..3000,
            flips in proptest::collection::vec(any::<u32>(), 1..8),
            cut in any::<u32>(),
        ) {
            let data = low_entropy(seed, 5, 1 + (seed % 97) as usize, len);
            let stream = compress(&data);
            let mut flipped = stream.clone();
            for &flip in &flips {
                let bit = flip as usize % (stream.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(inflates_like_reference(&flipped), "{flipped:02x?}");
            }
            let cut = cut as usize % stream.len();
            prop_assert!(inflates_like_reference(&stream[..cut]));
        }

        #[test]
        fn decompress_matches_reference_on_multi_block_streams(
            seed in any::<u64>(),
            pieces in proptest::collection::vec(any::<u32>(), 1..5),
            flips in proptest::collection::vec(any::<u32>(), 1..16),
        ) {
            let mut w = BitWriter::with_capacity(1024);
            let mut want = Vec::new();
            for (k, &piece) in pieces.iter().enumerate() {
                let (btype, len) = ((piece % 3) as u8, (piece >> 2) as usize % 700);
                let piece = low_entropy(seed ^ k as u64, 4, 1 + len % 50, len);
                append_block(&mut w, &piece, btype, k + 1 == pieces.len());
                want.extend_from_slice(&piece);
            }
            let stream = w.finish();
            prop_assert!(decompress(&stream).ok() == Some(want));
            for &flip in &flips {
                let mut damaged = stream.clone();
                let bit = flip as usize % (stream.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(inflates_like_reference(&damaged), "{damaged:02x?}");
            }
        }
    }
}
