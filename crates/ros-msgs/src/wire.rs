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

    /// Step over what [`WireRead::get_str`] accepts, and only that,
    /// without making the `str`: a walk's check of a string it does not
    /// read. An ASCII body — a frame id, an encoding name — costs one
    /// `is_ascii` pass; any other is checked by `std::str::from_utf8`,
    /// which is what a short ASCII string spends most of its read in.
    #[inline]
    fn skip_str(&mut self) -> Result<(), WireError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        if bytes.is_ascii() || std::str::from_utf8(bytes).is_ok() {
            Ok(())
        } else {
            Err(WireError::BadUtf8)
        }
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

    /// `n`, if `n` elements of at least `min_size` bytes each fit in what
    /// is left, else [`WireError::BadLength`]. A decoder checks an element
    /// count with this before reserving memory for it: a count the input
    /// cannot hold would fail on truncation later anyway, but only after
    /// the reservation.
    #[inline]
    fn fits(&self, n: usize, min_size: usize) -> Result<usize, WireError> {
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// A `u32` element count, checked by [`WireRead::fits`].
    #[inline]
    fn get_count(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.get_u32()? as usize;
        self.fits(n, min_size)
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

    /// `get_str` and `skip_str` accept exactly the bodies
    /// `std::str::from_utf8` accepts, and consume the same bytes; both
    /// refuse a length prefix the input cannot hold, and a cut prefix.
    #[test]
    fn strings_are_accepted_exactly_as_from_utf8_accepts_them() {
        let bodies: [&[u8]; 20] = [
            b"",
            b"imu_link",
            b"base_link_camera_rgb_optical_frame/with/a/long/ascii/tail",
            b"\x7f\x00\x01",
            "é".as_bytes(),
            "カメラ/深度".as_bytes(),
            "a\u{10348}b".as_bytes(),
            "imu_link_é".as_bytes(),
            &[0xFF],
            b"imu_link\xFF",
            &[0x80],
            b"ab\xBFcd",
            &[0xC3],
            &[0xE3, 0x82],
            &[0xF0, 0x90, 0x8D],
            b"imu_link_0123456\xE3\x82",
            &[0xC0, 0xAF],
            &[0xED, 0xA0, 0x80],
            &[0xF4, 0x90, 0x80, 0x80],
            &[0xF8, 0x88, 0x80, 0x80, 0x80],
        ];
        for body in bodies {
            let want = std::str::from_utf8(body).ok();
            let mut buf = Vec::new();
            buf.put_byte_array(body);
            buf.put_u8(0xAB);
            let (mut got, mut skip): (&[u8], &[u8]) = (&buf, &buf);
            assert_eq!(got.get_str().ok(), want, "get_str {body:?}");
            assert_eq!(skip.skip_str().is_ok(), want.is_some(), "skip_str {body:?}");
            if want.is_some() {
                assert_eq!((got, skip), (&[0xAB][..], &[0xAB][..]), "{body:?}");
            } else {
                let mut again: &[u8] = &buf;
                assert_eq!(again.skip_str(), Err(WireError::BadUtf8), "{body:?}");
            }
            // Every cut of the frame: the prefix, then the body, short.
            for cut in 0..4 + body.len() {
                let (mut get, mut skip): (&[u8], &[u8]) = (&buf[..cut], &buf[..cut]);
                assert!(get.get_str().is_err() && skip.skip_str().is_err(), "{body:?}[..{cut}]");
            }
        }
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
    fn counts_the_input_cannot_hold_are_rejected() {
        let mut buf = Vec::new();
        buf.put_u32(3);
        buf.put_bytes(&[0; 12]);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.fits(3, 4), Ok(3));
        assert_eq!(cur.get_count(4), Ok(3));
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_count(5), Err(WireError::BadLength(3)));
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 64]);
        let mut cur: &[u8] = &huge;
        assert_eq!(cur.get_count(1), Err(WireError::BadLength(u32::MAX as u64)));
        assert_eq!((&[][..]).fits(usize::MAX, 2), Err(WireError::BadLength(u64::MAX)));
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
