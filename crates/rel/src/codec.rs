//! The binary encoding of engine values, shared by the write-ahead log
//! ([`crate::wal`]), the checkpoint snapshot ([`crate::checkpoint`]) and the
//! server's wire protocol.
//!
//! ```text
//! u32 / u64        little-endian, fixed width
//! str      := len:u32 utf8-bytes
//! value    := 0x00                   NULL
//!           | 0x01 b:u8              BOOL (0/1)
//!           | 0x02 i:i64             INT
//!           | 0x03 bits:u64          DOUBLE (f64 bit pattern)
//!           | 0x04 s:str             STRING
//!           | 0x05 s:str             JSON (compact rendering)
//!           | 0x06 n:u32 value*n     ARRAY (at most MAX_DEPTH deep)
//! values   := n:u32 value*n
//! record   := len:u32 fletcher32(payload):u32 payload
//! ```
//!
//! Writers append to a `Vec<u8>` and cannot fail. [`Cursor`] reads a byte
//! slice and never panics or over-allocates on malformed input: every read
//! is bounds-checked, a count larger than the bytes left is rejected before
//! anything is allocated, arrays nest at most [`MAX_DEPTH`] deep, and
//! [`Cursor::finish`] rejects trailing bytes.

use crate::value::Value;
use std::fmt;

/// How many arrays deep a value may nest. The decoder rejects anything
/// deeper, so the engine refuses to build or store such a value (see
/// [`Value::depth`]).
pub const MAX_DEPTH: usize = 32;

/// Malformed input: what was wrong and the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for crate::Error {
    fn from(e: CodecError) -> crate::Error {
        crate::Error::Wal(e.0)
    }
}

type Result<T> = std::result::Result<T, CodecError>;

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a count-prefixed sequence of values.
pub fn put_values(out: &mut Vec<u8>, vals: &[Value]) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_value(out, v);
    }
}

/// Append one tagged value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(3);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Json(j) => {
            out.push(5);
            put_str(out, &j.to_string());
        }
        Value::Array(items) => {
            out.push(6);
            put_values(out, items);
        }
    }
}

/// Append one checksummed record whose payload `body` writes. The payload
/// is written in place: the header is reserved first and patched with the
/// length and checksum once the payload is complete.
pub(crate) fn put_record(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let payload = &out[start + 8..];
    let (len, sum) = (payload.len() as u32, fletcher32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Fletcher-32 checksum — cheap, and catches torn or garbled records.
fn fletcher32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (0u32, 0u32);
    for chunk in data.chunks(359) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= 65535;
        b %= 65535;
    }
    (b << 16) | a
}

/// Bounds-checked reader over an encoded byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Arrays the value being read is nested in.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error for `what`, located at the current offset.
    pub fn err(&self, what: &str) -> CodecError {
        CodecError(format!("{what} at byte {}", self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.err("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count. Every element encodes to at least one byte,
    /// so a count larger than the bytes left is rejected before the caller
    /// allocates for it.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.err("count exceeds the bytes left"));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8 string ending"))
    }

    /// A count-prefixed sequence of values.
    pub fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.count()?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.value()?);
        }
        Ok(vals)
    }

    /// One tagged value.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.array()?)),
            3 => Value::Double(f64::from_bits(self.u64()?)),
            4 => Value::str(self.str()?),
            5 => {
                let text = self.str()?;
                let json = sqlgraph_json::parse(text)
                    .map_err(|e| self.err(&format!("bad JSON value ({e}) ending")))?;
                Value::json(json)
            }
            6 => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("value nesting too deep"));
                }
                self.depth += 1;
                let items = self.values();
                self.depth -= 1;
                Value::array(items?)
            }
            t => return Err(self.err(&format!("unknown value tag {t}"))),
        })
    }

    /// The payload of the next checksummed record, whole and matching its
    /// checksum.
    pub(crate) fn record(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        let sum = self.u32()?;
        let payload = self.take(len)?;
        if fletcher32(payload) != sum {
            return Err(self.err("record checksum mismatch"));
        }
        Ok(payload)
    }

    /// Succeed only if the input was consumed exactly.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes after the payload"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_little_endian_up_to_the_nesting_bound() {
        let nested = |depth| (0..depth).fold(Value::Int(1), |v, _| Value::array(vec![v]));
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("héllo"),
            Value::json(sqlgraph_json::parse(r#"{"a":[1,"x"],"b":null}"#).unwrap()),
            nested(MAX_DEPTH),
        ];
        let mut out = Vec::new();
        put_values(&mut out, &vals);
        assert_eq!(out[..5], [7, 0, 0, 0, 0], "count 7, then the NULL tag");
        let mut c = Cursor::new(&out);
        assert_eq!(c.values().unwrap(), vals);
        c.finish().unwrap();
        out.push(0);
        let mut c = Cursor::new(&out);
        c.values().unwrap();
        assert!(c.finish().is_err(), "a trailing byte is rejected");
        out.clear();
        put_value(&mut out, &nested(MAX_DEPTH + 1));
        let e = Cursor::new(&out).value().unwrap_err();
        assert!(e.0.contains("nesting too deep"), "{e}");
    }

    #[test]
    fn codec_record_frame_detects_every_truncation_and_flip() {
        let mut out = Vec::new();
        put_record(&mut out, |p| {
            put_values(p, &[Value::Int(7), Value::str("seven")])
        });
        assert_eq!(Cursor::new(&out).record().unwrap().len(), out.len() - 8);
        for i in 0..out.len() {
            assert!(Cursor::new(&out[..i]).record().is_err(), "cut at {i}");
            for mask in [0x01u8, 0x80] {
                let mut bad = out.clone();
                bad[i] ^= mask;
                assert!(Cursor::new(&bad).record().is_err(), "flip at {i}");
            }
        }
    }
}
