//! `std_msgs` primitives: `Header` and `ColorRGBA`.

use crate::msg::RosMessage;
use crate::time::Time;
use crate::wire::{WireError, WireRead, WireWrite};

/// `std_msgs/Header` — sequence number, stamp, and coordinate frame id.
/// Present at the front of every stamped sensor message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Header {
    pub seq: u32,
    pub stamp: Time,
    pub frame_id: String,
}

impl RosMessage for Header {
    const DATATYPE: &'static str = "std_msgs/Header";
    const DEFINITION: &'static str = "\
uint32 seq
time stamp
string frame_id
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.seq);
        buf.put_time(self.stamp);
        buf.put_string(&self.frame_id);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Header { seq: cur.get_u32()?, stamp: cur.get_time()?, frame_id: cur.get_string()? })
    }

    fn wire_len(&self) -> usize {
        4 + 8 + 4 + self.frame_id.len()
    }
}

impl Header {
    /// Advance `cur` past one header without building it: the bytes
    /// [`Header::deserialize`] accepts, and only those. `seq` is at 0,
    /// `stamp` at 4 and the `frame_id` string at 12 of what was skipped.
    pub fn skip(cur: &mut &[u8]) -> Option<()> {
        cur.take(12).ok()?;
        cur.get_str().ok()?;
        Some(())
    }
}

/// `std_msgs/ColorRGBA` — used by visualization markers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColorRgba {
    pub r: f32,
    pub g: f32,
    pub b: f32,
    pub a: f32,
}

impl RosMessage for ColorRgba {
    const DATATYPE: &'static str = "std_msgs/ColorRGBA";
    const DEFINITION: &'static str = "\
float32 r
float32 g
float32 b
float32 a
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_f32(self.r);
        buf.put_f32(self.g);
        buf.put_f32(self.b);
        buf.put_f32(self.a);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ColorRgba { r: cur.get_f32()?, g: cur.get_f32()?, b: cur.get_f32()?, a: cur.get_f32()? })
    }

    fn wire_len(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = Header { seq: 42, stamp: Time::new(100, 5), frame_id: "base_link".into() };
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), h.wire_len());
        assert_eq!(Header::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn color_round_trip() {
        let c = ColorRgba { r: 0.1, g: 0.2, b: 0.3, a: 1.0 };
        assert_eq!(ColorRgba::from_bytes(&c.to_bytes()).unwrap(), c);
    }
}
