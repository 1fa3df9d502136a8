//! Compact binary encoding of the serde [`Value`] tree — the meta
//! segment's pre-compression form. Site segments have their own positional
//! codec ([`crate::fast`]), which shares this module's varint writer and
//! bounded `Reader`.
//!
//! Segments originally held JSON text, but parsing 76 MB of JSON dominated
//! replay (escape scanning, number re-parsing, per-character dispatch) and
//! made reading an archive *slower* than re-running the crawl it captured.
//! This codec is the structural fix: strings are length-prefixed raw UTF-8
//! (decoded with one validation and one copy), integers are varints, byte
//! bodies are packed raw, and collection counts are known up front so every
//! `Vec` and `String` is allocated once at final size.
//!
//! ```text
//! value  := 0x00                          null
//!         | 0x01 | 0x02                   false | true
//!         | 0x03 zigzag:uvar              signed integer
//!         | 0x04 n:uvar                   unsigned integer
//!         | 0x05 f64bits:8                float, exact little-endian bits
//!         | 0x06 len:uvar utf8[len]       string
//!         | 0x07 count:uvar value*        array
//!         | 0x08 count:uvar entry*        object
//!         | 0x09 len:uvar byte[len]       packed array of unsigned < 256
//! entry  := len:uvar utf8[len] value
//! uvar   := LEB128 unsigned
//! ```
//!
//! Tag `0x09` exists because the capture model stores HTTP bodies as
//! `Vec<u8>`, which the value tree represents as an array of small `U64`s —
//! nine bytes per body byte and one tree node each under tags alone. The
//! encoder packs any non-empty array whose elements are all `U64(n < 256)`
//! into raw bytes; the decoder expands it back to the identical array, so
//! the `Value` round-trip is unchanged. The float encoding is *more*
//! faithful than the JSON text form: the bit pattern round-trips exactly,
//! with no decimal formatting in between. Integrity is the framing's job
//! (per-segment CRC-32 before decode); this decoder only has to be
//! error-returning and allocation-bounded on arbitrary bytes, never
//! trusting a declared count beyond the bytes that could actually back it.

use serde::Value;

pub(crate) const TAG_NULL: u8 = 0x00;
pub(crate) const TAG_FALSE: u8 = 0x01;
pub(crate) const TAG_TRUE: u8 = 0x02;
pub(crate) const TAG_I64: u8 = 0x03;
pub(crate) const TAG_U64: u8 = 0x04;
pub(crate) const TAG_F64: u8 = 0x05;
pub(crate) const TAG_STR: u8 = 0x06;
pub(crate) const TAG_ARR: u8 = 0x07;
pub(crate) const TAG_OBJ: u8 = 0x08;
pub(crate) const TAG_BYTES: u8 = 0x09;

/// Decoding failure; the payload CRC should make this unreachable in
/// practice, but the decoder never panics on arbitrary input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VbinError(pub &'static str);

pub(crate) fn write_uvar(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

pub(crate) fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_uvar(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn packable_as_bytes(items: &[Value]) -> bool {
    !items.is_empty() && items.iter().all(|v| matches!(v, Value::U64(n) if *n < 256))
}

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(n) => {
            out.push(TAG_I64);
            write_uvar(out, zigzag(*n));
        }
        Value::U64(n) => {
            out.push(TAG_U64);
            write_uvar(out, *n);
        }
        Value::F64(f) => {
            out.push(TAG_F64);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_str(out, s);
        }
        Value::Arr(items) if packable_as_bytes(items) => {
            out.push(TAG_BYTES);
            write_uvar(out, items.len() as u64);
            for item in items {
                match item {
                    Value::U64(n) => out.push(*n as u8),
                    // lint:allow(W04) -- encode side, not replay: the arm is dead by the packable_as_bytes guard on this match
                    _ => unreachable!("packable_as_bytes checked every element"),
                }
            }
        }
        Value::Arr(items) => {
            out.push(TAG_ARR);
            write_uvar(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Obj(entries) => {
            out.push(TAG_OBJ);
            write_uvar(out, entries.len() as u64);
            for (key, val) in entries {
                write_str(out, key);
                encode_value(val, out);
            }
        }
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn byte(&mut self) -> Result<u8, VbinError> {
        let b = *self.bytes.get(self.pos).ok_or(VbinError("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], VbinError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(VbinError("length overflow"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(VbinError("truncated"))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn uvar(&mut self) -> Result<u64, VbinError> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(VbinError("varint too long"))
    }

    /// A declared element count, sanity-capped so a corrupt header can't
    /// drive a huge up-front allocation: every element costs at least
    /// `min_bytes` bytes of input that must still be present.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, VbinError> {
        let n = self.uvar()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(min_bytes as u64) > remaining {
            return Err(VbinError("count exceeds input"));
        }
        Ok(n as usize)
    }

    pub(crate) fn str_bytes(&mut self) -> Result<&'a [u8], VbinError> {
        let len = self.uvar()?;
        if len > (self.bytes.len() - self.pos) as u64 {
            return Err(VbinError("truncated"));
        }
        self.take(len as usize)
    }

    pub(crate) fn string(&mut self) -> Result<String, VbinError> {
        let raw = self.str_bytes()?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(VbinError("invalid UTF-8")),
        }
    }

    fn fixed8(&mut self) -> Result<[u8; 8], VbinError> {
        self.take(8)?.try_into().map_err(|_| VbinError("truncated"))
    }

    fn value(&mut self) -> Result<Value, VbinError> {
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_I64 => Ok(Value::I64(unzigzag(self.uvar()?))),
            TAG_U64 => Ok(Value::U64(self.uvar()?)),
            TAG_F64 => Ok(Value::F64(f64::from_bits(u64::from_le_bytes(
                self.fixed8()?,
            )))),
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_ARR => {
                let count = self.count(1)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value()?);
                }
                Ok(Value::Arr(items))
            }
            TAG_OBJ => {
                let count = self.count(2)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.string()?;
                    entries.push((key, self.value()?));
                }
                Ok(Value::Obj(entries))
            }
            TAG_BYTES => {
                let raw = self.str_bytes()?;
                Ok(Value::Arr(
                    raw.iter().map(|&b| Value::U64(u64::from(b))).collect(),
                ))
            }
            _ => Err(VbinError("unknown tag")),
        }
    }
}

/// Decode one value spanning exactly `bytes`.
pub fn decode_value(bytes: &[u8]) -> Result<Value, VbinError> {
    let mut r = Reader::new(bytes);
    let v = r.value()?;
    if r.pos != bytes.len() {
        return Err(VbinError("trailing bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        assert_eq!(&decode_value(&out).unwrap(), v, "round-trip of {v:?}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::I64(-42),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::U64(u64::MAX),
            Value::F64(0.1),
            Value::F64(-0.0),
            Value::F64(f64::MAX),
            Value::Str(String::new()),
            Value::Str("naïve — ünïcode 🦀".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let mut out = Vec::new();
        encode_value(&Value::F64(f64::NAN), &mut out);
        match decode_value(&out).unwrap() {
            Value::F64(f) => assert_eq!(f.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn byte_bodies_pack_and_expand_to_the_same_value() {
        let body = Value::Arr((0u64..=255).map(Value::U64).collect());
        let mut out = Vec::new();
        encode_value(&body, &mut out);
        // 1 tag + 2 length bytes + 256 raw bytes, not 256 tagged varints.
        assert_eq!(out.len(), 1 + 2 + 256);
        assert_eq!(out[0], TAG_BYTES);
        assert_eq!(decode_value(&out).unwrap(), body);
    }

    #[test]
    fn non_byte_arrays_do_not_pack() {
        for v in [
            Value::Arr(vec![]),
            Value::Arr(vec![Value::U64(256)]),
            Value::Arr(vec![Value::U64(7), Value::I64(7)]),
            Value::Arr(vec![Value::Str("x".into())]),
        ] {
            let mut out = Vec::new();
            encode_value(&v, &mut out);
            assert_eq!(out[0], TAG_ARR);
            round_trip(&v);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        round_trip(&Value::Arr(vec![
            Value::Obj(vec![
                ("domain".into(), Value::Str("shop0001.com".into())),
                ("hops".into(), Value::U64(3)),
                ("tags".into(), Value::Arr(vec![])),
            ]),
            Value::Null,
            Value::Arr(vec![Value::Bool(true), Value::I64(-1)]),
        ]));
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for len in [0usize, 1, 127, 128, 300, 16_384] {
            round_trip(&Value::Str("x".repeat(len)));
        }
        for n in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            round_trip(&Value::U64(n));
        }
    }

    #[test]
    fn zigzag_is_an_involution_at_the_edges() {
        for n in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // Lying counts, bad tags, truncations: always an Err, never a panic
        // or an absurd allocation.
        for bad in [
            &[][..],
            &[0x07, 0xff, 0xff, 0xff, 0xff, 0x0f],
            &[0x08, 0xff, 0xff, 0xff, 0xff, 0x0f],
            &[0x06, 0xff, 0xff, 0xff, 0xff, 0x0f],
            &[0x09, 0xff, 0xff, 0xff, 0xff, 0x0f],
            &[0x05, 1, 2],
            &[0x0a],
            &[0x06, 0x02, 0xc3],
            &[0x00, 0x00],
            &[0x80],
        ] {
            assert!(decode_value(bad).is_err(), "{bad:?} should fail cleanly");
        }
    }

    #[test]
    fn oversized_varints_are_rejected_not_misread() {
        // A maximal varint (10 bytes, would need bit 70) errors out.
        let bytes = [
            0x06, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert!(decode_value(&bytes).is_err());
    }
}
