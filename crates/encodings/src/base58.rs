//! Base58 with the Bitcoin alphabet (no 0/O/I/l), leading-zero aware.

use crate::DecodeError;

const ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// 58⁵, the largest power of 58 below 2³²: one division by it yields five
/// base-58 digits.
const BIG: u64 = 58u64.pow(5);

/// Encode bytes as Base58.
pub fn encode(data: &[u8]) -> String {
    // Leading zero bytes become leading '1's.
    let zeros = data.iter().take_while(|&&b| b == 0).count();
    let rest = &data[zeros..];
    // The rest as a big-endian bignum of u32 limbs, the first limb short
    // when the length is not a multiple of four.
    let head = rest.len() % 4;
    let mut limbs: Vec<u32> = Vec::with_capacity(rest.len().div_ceil(4));
    if head > 0 {
        limbs.push(rest[..head].iter().fold(0, |acc, &b| acc << 8 | b as u32));
    }
    limbs.extend(
        rest[head..]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
    );
    // Repeated in-place division by 58⁵; digits come out least significant
    // first, five per division.
    let mut digits: Vec<u8> = Vec::with_capacity(rest.len() * 138 / 100 + 6);
    let mut start = 0;
    while start < limbs.len() {
        let mut rem = 0u64;
        for limb in &mut limbs[start..] {
            let acc = rem << 32 | *limb as u64;
            *limb = (acc / BIG) as u32;
            rem = acc % BIG;
        }
        while start < limbs.len() && limbs[start] == 0 {
            start += 1;
        }
        for _ in 0..5 {
            digits.push((rem % 58) as u8);
            rem /= 58;
        }
    }
    // The last division pads its group with zero digits above the number.
    while digits.last() == Some(&0) {
        digits.pop();
    }
    let mut out = String::with_capacity(zeros + digits.len());
    out.extend(std::iter::repeat_n('1', zeros));
    out.extend(digits.iter().rev().map(|&d| ALPHABET[d as usize] as char));
    out
}

/// Decode Base58 text.
pub fn decode(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut rev = [255u8; 256];
    for (i, &c) in ALPHABET.iter().enumerate() {
        rev[c as usize] = i as u8;
    }
    let ones = data.iter().take_while(|&&b| b == b'1').count();
    let mut num: Vec<u8> = Vec::new(); // big-endian byte bignum
    for (i, &c) in data[ones..].iter().enumerate() {
        let v = rev[c as usize];
        if v == 255 {
            return Err(DecodeError::InvalidByte(ones + i));
        }
        // num = num * 58 + v
        let mut carry = v as u32;
        for byte in num.iter_mut().rev() {
            let acc = *byte as u32 * 58 + carry;
            *byte = acc as u8;
            carry = acc >> 8;
        }
        while carry > 0 {
            num.insert(0, carry as u8);
            carry >>= 8;
        }
    }
    let mut out = vec![0u8; ones];
    out.extend_from_slice(&num);
    Ok(out)
}

/// The encoder this module used before it divided in place: one byte per
/// limb, dividing by 58 into a freshly allocated quotient for every digit.
/// Kept as the oracle for `encode_equals_reference`.
#[cfg(test)]
mod reference {
    use super::ALPHABET;

    pub fn encode(data: &[u8]) -> String {
        let zeros = data.iter().take_while(|&&b| b == 0).count();
        let mut digits: Vec<u8> = Vec::new(); // base-58 digits, little-endian
        let mut num: Vec<u8> = data[zeros..].to_vec();
        while !num.is_empty() {
            let mut rem = 0u32;
            let mut next = Vec::with_capacity(num.len());
            for &byte in &num {
                let acc = rem * 256 + byte as u32;
                let q = acc / 58;
                rem = acc % 58;
                if !next.is_empty() || q != 0 {
                    next.push(q as u8);
                }
            }
            digits.push(rem as u8);
            num = next;
        }
        let mut out = String::with_capacity(zeros + digits.len());
        out.extend(std::iter::repeat_n('1', zeros));
        out.extend(digits.iter().rev().map(|&d| ALPHABET[d as usize] as char));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"Hello World!"), "2NEpo7TZRRrLZSi2U");
        assert_eq!(
            encode(b"The quick brown fox jumps over the lazy dog."),
            "USm3fpXnKG5EUBx2ndxBDMPVciP5hGey2Jh4NDv6gmeo1LkMeiKrLJUUBk6Z"
        );
        assert_eq!(encode(&[0x00, 0x00, 0x28, 0x7f, 0xb4, 0xcd]), "11233QC4");
    }

    #[test]
    fn leading_zeros_preserved() {
        let data = [0u8, 0, 0, 1, 2, 3];
        assert_eq!(decode(encode(&data).as_bytes()).unwrap(), data);
        assert!(encode(&data).starts_with("111"));
    }

    #[test]
    fn rejects_ambiguous_characters() {
        for c in ["0", "O", "I", "l"] {
            assert!(decode(c.as_bytes()).is_err(), "{c} should be rejected");
        }
    }

    #[test]
    fn all_zero_input() {
        assert_eq!(encode(&[0, 0]), "11");
        assert_eq!(decode(b"11").unwrap(), vec![0, 0]);
    }

    #[test]
    fn encode_matches_reference_on_edge_inputs() {
        let mut inputs: Vec<Vec<u8>> = vec![vec![], vec![0xff; 64], vec![1; 33]];
        for len in 1..=12 {
            inputs.push(vec![0; len]);
            let mut leading = vec![0; len];
            leading.extend_from_slice(&[0x01, 0x00, 0xff, 0x3a]);
            inputs.push(leading);
            inputs.push((0..len as u8).map(|b| b.wrapping_mul(97)).collect());
        }
        // Powers of 58 and their neighbours, where a digit group ends.
        for k in 1..=12u32 {
            let n = 58u128.pow(k);
            for v in [n - 1, n, n + 1] {
                let bytes = v.to_be_bytes();
                let first = bytes.iter().position(|&b| b != 0).unwrap();
                inputs.push(bytes[first..].to_vec());
            }
        }
        for input in &inputs {
            assert_eq!(encode(input), reference::encode(input), "{input:?}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// In-place division by 58⁵ equals the digit-at-a-time encoder.
        #[test]
        fn encode_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..130),
            zeros in 0usize..4,
        ) {
            let mut input = vec![0; zeros];
            input.extend_from_slice(&data);
            prop_assert_eq!(encode(&input), reference::encode(&input));
        }
    }
}
