//! Percent-encoding (RFC 3986) and `application/x-www-form-urlencoded`.
//!
//! `pii-net` uses these for URL parsing; the leak detector uses
//! [`decode_lossy`] to unwrap query strings before token matching, because
//! trackers URL-encode the `@` in plaintext email parameters.

/// Bytes that never need escaping in a query component ("unreserved").
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~')
}

/// Percent-encode arbitrary bytes for use in a URL query component.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len());
    for &b in data {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(
                char::from_digit((b >> 4) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
            out.push(
                char::from_digit((b & 15) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
        }
    }
    out
}

/// Form-encode: like [`encode`] but spaces become `+`.
pub fn encode_form(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len());
    for &b in data {
        if b == b' ' {
            out.push('+');
        } else if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(
                char::from_digit((b >> 4) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
            out.push(
                char::from_digit((b & 15) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
        }
    }
    out
}

/// High-nibble hex table: `HEX_HI[b]` is the digit value of `b` pre-shifted
/// into the high half of a byte, or `-1` when `b` is not an ASCII hex
/// digit. Paired with [`HEX_LO`], a decoded escape byte is the branch-free
/// `HEX_HI[b1] | HEX_LO[b2]`: any invalid digit forces the sign bit, so one
/// `>= 0` test replaces the two per-nibble `to_digit` branches of the old
/// decoder.
const HEX_HI: [i16; 256] = {
    let mut t = [-1i16; 256];
    let mut b = 0usize;
    while b < 256 {
        if let Some(d) = hex_digit(b as u8) {
            t[b] = (d as i16).wrapping_shl(4);
        }
        b += 1; // lint:allow(W03) -- table-build loop counter bounded by the literal 256
    }
    t
};

/// Low-nibble hex table; see [`HEX_HI`].
const HEX_LO: [i16; 256] = {
    let mut t = [-1i16; 256];
    let mut b = 0usize;
    while b < 256 {
        if let Some(d) = hex_digit(b as u8) {
            t[b] = d as i16;
        }
        b += 1; // lint:allow(W03) -- table-build loop counter bounded by the literal 256
    }
    t
};

/// Hex digit value of `b`, accepting both cases (what `to_digit(16)` did).
const fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10), // lint:allow(W03) -- digit offset is at most 15
        b'A'..=b'F' => Some(b - b'A' + 10), // lint:allow(W03) -- digit offset is at most 15
        _ => None,
    }
}

/// Decode percent-escapes, passing malformed escapes through verbatim (the
/// behaviour browsers exhibit, and what a robust scanner needs).
///
/// Single pass, table-driven: hex validation is the branch-reduced
/// [`HEX_HI`]`|`[`HEX_LO`] lookup. The tests hold it to the per-nibble
/// `to_digit` decoder it replaced.
pub fn decode_lossy(s: &str) -> Vec<u8> {
    decode_impl(s.as_bytes(), false)
}

/// Form-decode: `+` means space, then percent-decode.
///
/// One pass, one allocation. The old implementation materialized
/// `s.replace('+', " ")` and then a second output buffer on every form pair
/// the detector decodes; the `+` → space substitution now happens inline
/// (`+` is never a hex digit, so it can never be part of a valid escape and
/// the substitution order is immaterial — the tests hold it to the
/// two-allocation form).
pub fn decode_form_lossy(s: &str) -> Vec<u8> {
    decode_impl(s.as_bytes(), true)
}

fn decode_impl(bytes: &[u8], plus_is_space: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            if let (Some(&b1), Some(&b2)) =
                (bytes.get(i.wrapping_add(1)), bytes.get(i.wrapping_add(2)))
            {
                let v = HEX_HI[b1 as usize] | HEX_LO[b2 as usize];
                if v >= 0 {
                    out.push(v as u8);
                    i = i.wrapping_add(3);
                    continue;
                }
            }
        }
        out.push(if plus_is_space && b == b'+' { b' ' } else { b });
        i = i.wrapping_add(1);
    }
    out
}

/// The decoders the table-driven kernel replaced, kept as the oracles for
/// the differential tests below.
#[cfg(test)]
mod reference {
    /// Per-nibble `to_digit` branches.
    pub fn decode_lossy(s: &str) -> Vec<u8> {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                if let (Some(hi), Some(lo)) = (
                    bytes
                        .get(i.wrapping_add(1))
                        .and_then(|&c| (c as char).to_digit(16)),
                    bytes
                        .get(i.wrapping_add(2))
                        .and_then(|&c| (c as char).to_digit(16)),
                ) {
                    out.push((hi.wrapping_shl(4) | lo) as u8);
                    i = i.wrapping_add(3);
                    continue;
                }
            }
            out.push(bytes[i]);
            i = i.wrapping_add(1);
        }
        out
    }

    /// Two allocations: replace `+` with a space, then decode.
    pub fn decode_form_lossy(s: &str) -> Vec<u8> {
        decode_lossy(&s.replace('+', " "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_reserved_characters() {
        assert_eq!(encode(b"foo@mydom.com"), "foo%40mydom.com");
        assert_eq!(encode(b"a b&c=d"), "a%20b%26c%3Dd");
        assert_eq!(encode(b"safe-chars_.~AZ09"), "safe-chars_.~AZ09");
    }

    #[test]
    fn form_encoding_uses_plus() {
        assert_eq!(encode_form(b"Alice Doe"), "Alice+Doe");
        assert_eq!(decode_form_lossy("Alice+Doe"), b"Alice Doe");
    }

    #[test]
    fn decode_roundtrips() {
        let data = b"foo@mydom.com & \xff\x00 stuff";
        assert_eq!(decode_lossy(&encode(data)), data);
    }

    #[test]
    fn malformed_escapes_pass_through() {
        assert_eq!(decode_lossy("100%"), b"100%");
        assert_eq!(decode_lossy("%zz"), b"%zz");
        assert_eq!(decode_lossy("%4"), b"%4");
        assert_eq!(decode_lossy("%40"), b"@");
    }

    #[test]
    fn lowercase_escapes_accepted() {
        assert_eq!(decode_lossy("%3a%3A"), b"::");
    }

    /// `%2B` is a literal plus; a bare `+` is a space. The single-pass
    /// rewrite must never confuse the two (the old two-pass code got this
    /// right only because it replaced `+` *before* decoding — this pins the
    /// behavior so the rewrite cannot drift).
    #[test]
    fn form_decode_distinguishes_escaped_plus_from_space() {
        assert_eq!(decode_form_lossy("a%2Bb"), b"a+b");
        assert_eq!(decode_form_lossy("a+b"), b"a b");
        assert_eq!(decode_form_lossy("a%2B+b"), b"a+ b");
        assert_eq!(decode_form_lossy("%2b%2B++"), b"++  ");
        // Percent-decoding never resurrects a space-from-plus: `%25 2B` is
        // a literal "%2B" after one round, not a plus.
        assert_eq!(decode_form_lossy("%252B"), b"%2B");
    }

    /// Truncated trailing escapes pass through verbatim in both decoders,
    /// including when the truncation happens right at end-of-input.
    #[test]
    fn truncated_trailing_escapes_pass_through() {
        assert_eq!(decode_form_lossy("x%"), b"x%");
        assert_eq!(decode_form_lossy("x%4"), b"x%4");
        assert_eq!(decode_form_lossy("x%+"), b"x% ");
        assert_eq!(decode_form_lossy("%+4"), b"% 4");
        assert_eq!(decode_form_lossy("%"), b"%");
        assert_eq!(decode_form_lossy("%zz"), b"%zz");
        assert_eq!(decode_lossy("tail%A"), b"tail%A");
        assert_eq!(decode_lossy("tail%"), b"tail%");
    }

    /// The kernels agree with their references on a byte-exhaustive sweep:
    /// every possible escape body `%XY` for all 256×step pairs, plus every
    /// single byte.
    #[test]
    fn kernel_decoders_equal_references_exhaustively() {
        let mut probe = String::new();
        for hi in (0u8..=255).step_by(7) {
            for lo in (0u8..=255).step_by(11) {
                if let (Ok(h), Ok(l)) = (std::str::from_utf8(&[hi]), std::str::from_utf8(&[lo])) {
                    probe.push('%');
                    probe.push_str(h);
                    probe.push_str(l);
                }
            }
        }
        probe.push_str("+%+%2B%4%");
        assert_eq!(decode_lossy(&probe), reference::decode_lossy(&probe));
        assert_eq!(
            decode_form_lossy(&probe),
            reference::decode_form_lossy(&probe)
        );
    }

    use proptest::prelude::*;

    proptest! {
        /// The single-pass table-driven decoders equal the references on
        /// escape-heavy strings (valid, truncated, and junk escapes, plus
        /// `+` in both roles).
        #[test]
        fn percent_decoders_equal_references(s in "[a-zA-Z0-9%+ =&]{0,64}") {
            prop_assert_eq!(decode_lossy(&s), reference::decode_lossy(&s));
            prop_assert_eq!(decode_form_lossy(&s), reference::decode_form_lossy(&s));
        }
    }
}
