//! ROS1 wire-format primitives.
//!
//! ROS1 serialization is little-endian and self-delimiting only through
//! length prefixes: scalars are fixed-width, strings and dynamic arrays are
//! prefixed with a `u32` element/byte count, and fixed-size arrays are laid
//! out raw. These helpers are shared by every message implementation and by
//! the bag record grammar in the `rosbag` crate (bag record headers use the
//! same length-prefixed encoding).

use std::fmt;

use crate::time::{RosDuration, Time};

/// Error produced when decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the expected number of bytes.
    Truncated { needed: usize, available: usize },
    /// A length prefix exceeded a sanity limit or the remaining input.
    BadLength(u64),
    /// String data was not valid UTF-8.
    BadUtf8,
    /// A domain-specific invariant was violated (free-form context).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            WireError::BadLength(n) => write!(f, "implausible length prefix: {n}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Invalid(msg) => write!(f, "invalid wire data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialization sink: everything is appended to a `Vec<u8>`.
///
/// All writers are infallible; buffers grow as needed. The trait exists so
/// message code reads symmetrically with [`WireRead`].
pub trait WireWrite {
    fn put_u8(&mut self, v: u8);
    fn put_bytes(&mut self, v: &[u8]);

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }
    #[inline]
    fn put_i16(&mut self, v: i16) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_i32(&mut self, v: i32) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_f32(&mut self, v: f32) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }
    #[inline]
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// `u32` byte-length prefix + UTF-8 bytes.
    #[inline]
    fn put_string(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }

    /// `u32` byte-length prefix + raw bytes (ROS `uint8[]`).
    #[inline]
    fn put_byte_array(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    #[inline]
    fn put_time(&mut self, t: Time) {
        self.put_u32(t.sec);
        self.put_u32(t.nsec);
    }

    #[inline]
    fn put_duration(&mut self, d: RosDuration) {
        self.put_u32(d.sec);
        self.put_u32(d.nsec);
    }
}

impl WireWrite for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_bytes(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Deserialization source: a shrinking `&[u8]` cursor.
///
/// Implemented for `&[u8]` so callers write
/// `let mut cur: &[u8] = &buf; Msg::deserialize(&mut cur)`.
pub trait WireRead<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError>;
    fn remaining(&self) -> usize;

    #[inline]
    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    #[inline]
    fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    #[inline]
    fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    #[inline]
    fn get_i8(&mut self) -> Result<i8, WireError> {
        Ok(self.get_u8()? as i8)
    }
    #[inline]
    fn get_i16(&mut self) -> Result<i16, WireError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    #[inline]
    fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    #[inline]
    fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    #[inline]
    fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    #[inline]
    fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    #[inline]
    fn get_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.get_u8()? != 0)
    }

    /// `u32` byte-length prefix + UTF-8 bytes, borrowed from the input:
    /// what [`WireRead::get_string`] accepts, without the `String`.
    #[inline]
    fn get_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.get_u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    #[inline]
    fn get_string(&mut self) -> Result<String, WireError> {
        self.get_str().map(str::to_owned)
    }

    #[inline]
    fn get_byte_array(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    #[inline]
    fn get_time(&mut self) -> Result<Time, WireError> {
        let sec = self.get_u32()?;
        let nsec = self.get_u32()?;
        Ok(Time { sec, nsec })
    }

    #[inline]
    fn get_duration(&mut self) -> Result<RosDuration, WireError> {
        let sec = self.get_u32()?;
        let nsec = self.get_u32()?;
        Ok(RosDuration { sec, nsec })
    }
}

impl<'a> WireRead<'a> for &'a [u8] {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.len() < n {
            return Err(WireError::Truncated { needed: n, available: self.len() });
        }
        let (head, tail) = self.split_at(n);
        *self = tail;
        Ok(head)
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x1234);
        buf.put_u32(0xDEADBEEF);
        buf.put_u64(0x0123_4567_89AB_CDEF);
        buf.put_i32(-42);
        buf.put_f64(3.5);
        buf.put_bool(true);

        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_u8().unwrap(), 0xAB);
        assert_eq!(cur.get_u16().unwrap(), 0x1234);
        assert_eq!(cur.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(cur.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(cur.get_i32().unwrap(), -42);
        assert_eq!(cur.get_f64().unwrap(), 3.5);
        assert!(cur.get_bool().unwrap());
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn string_round_trip() {
        let mut buf = Vec::new();
        buf.put_string("/camera/rgb/image_color");
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_string().unwrap(), "/camera/rgb/image_color");
    }

    #[test]
    fn empty_string() {
        let mut buf = Vec::new();
        buf.put_string("");
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_string().unwrap(), "");
    }

    #[test]
    fn truncated_scalar_errors() {
        let mut cur: &[u8] = &[1, 2];
        assert!(matches!(cur.get_u32(), Err(WireError::Truncated { needed: 4, available: 2 })));
    }

    #[test]
    fn truncated_string_errors() {
        let mut buf = Vec::new();
        buf.put_u32(100);
        buf.put_bytes(b"short");
        let mut cur: &[u8] = &buf;
        assert!(matches!(cur.get_string(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut buf = Vec::new();
        buf.put_u32(2);
        buf.put_bytes(&[0xFF, 0xFE]);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_string(), Err(WireError::BadUtf8));
    }

    #[test]
    fn time_round_trip() {
        let t = Time::new(1234, 567_890);
        let mut buf = Vec::new();
        buf.put_time(t);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_time().unwrap(), t);
    }

    #[test]
    fn byte_array_round_trip() {
        let data = vec![7u8; 1024];
        let mut buf = Vec::new();
        buf.put_byte_array(&data);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_byte_array().unwrap(), data);
    }
}
