//! `visualization_msgs` types: `Marker` and `MarkerArray`.
//!
//! The paper's Handheld-SLAM bag publishes `/cortex_marker_array`
//! (Table II, row E): 14,487 MarkerArray messages, ~8.4 MB — small
//! structured messages interleaved with the large image stream.

use crate::geometry_msgs::{Point, Pose, Vector3};
use crate::msg::{read_seq, skip_seq, RosMessage};
use crate::std_msgs::{ColorRgba, Header};
use crate::time::RosDuration;
use crate::wire::{WireError, WireRead, WireWrite};

/// Marker geometric primitive kinds (subset of `visualization_msgs/Marker`
/// constants; values match ROS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i32)]
#[derive(Default)]
pub enum MarkerType {
    Arrow = 0,
    #[default]
    Cube = 1,
    Sphere = 2,
    Cylinder = 3,
    LineStrip = 4,
    LineList = 5,
    Points = 8,
    TextViewFacing = 9,
}

impl MarkerType {
    /// The kind whose ROS constant is `v`, if there is one.
    pub fn known(v: i32) -> Option<Self> {
        Some(match v {
            0 => MarkerType::Arrow,
            1 => MarkerType::Cube,
            2 => MarkerType::Sphere,
            3 => MarkerType::Cylinder,
            4 => MarkerType::LineStrip,
            5 => MarkerType::LineList,
            8 => MarkerType::Points,
            9 => MarkerType::TextViewFacing,
            _ => return None,
        })
    }

    pub fn from_i32(v: i32) -> Result<Self, WireError> {
        Self::known(v).ok_or_else(|| WireError::Invalid(format!("unknown marker type {v}")))
    }
}

/// Marker action constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(i32)]
pub enum MarkerAction {
    #[default]
    Add = 0,
    Modify = 1,
    Delete = 2,
}

impl MarkerAction {
    /// The action whose ROS constant is `v`, if there is one.
    pub fn known(v: i32) -> Option<Self> {
        Some(match v {
            0 => MarkerAction::Add,
            1 => MarkerAction::Modify,
            2 => MarkerAction::Delete,
            _ => return None,
        })
    }

    pub fn from_i32(v: i32) -> Result<Self, WireError> {
        Self::known(v).ok_or_else(|| WireError::Invalid(format!("unknown marker action {v}")))
    }
}

/// `visualization_msgs/Marker` (trimmed to the fields the workloads use;
/// layout follows the ROS definition order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Marker {
    pub header: Header,
    pub ns: String,
    pub id: i32,
    pub marker_type: MarkerType,
    pub action: MarkerAction,
    pub pose: Pose,
    pub scale: Vector3,
    pub color: ColorRgba,
    pub lifetime: RosDuration,
    pub frame_locked: bool,
    pub points: Vec<Point>,
    pub colors: Vec<ColorRgba>,
    pub text: String,
}

impl RosMessage for Marker {
    const DATATYPE: &'static str = "visualization_msgs/Marker";
    const DEFINITION: &'static str = "\
std_msgs/Header header
string ns
int32 id
int32 type
int32 action
geometry_msgs/Pose pose
geometry_msgs/Vector3 scale
std_msgs/ColorRGBA color
duration lifetime
bool frame_locked
geometry_msgs/Point[] points
std_msgs/ColorRGBA[] colors
string text
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_string(&self.ns);
        buf.put_i32(self.id);
        buf.put_i32(self.marker_type as i32);
        buf.put_i32(self.action as i32);
        self.pose.serialize(buf);
        self.scale.serialize(buf);
        self.color.serialize(buf);
        buf.put_duration(self.lifetime);
        buf.put_bool(self.frame_locked);
        buf.put_u32(self.points.len() as u32);
        for p in &self.points {
            p.serialize(buf);
        }
        buf.put_u32(self.colors.len() as u32);
        for c in &self.colors {
            c.serialize(buf);
        }
        buf.put_string(&self.text);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Marker {
            header: Header::deserialize(cur)?,
            ns: cur.get_string()?,
            id: cur.get_i32()?,
            marker_type: MarkerType::from_i32(cur.get_i32()?)?,
            action: MarkerAction::from_i32(cur.get_i32()?)?,
            pose: Pose::deserialize(cur)?,
            scale: Vector3::deserialize(cur)?,
            color: ColorRgba::deserialize(cur)?,
            lifetime: cur.get_duration()?,
            frame_locked: cur.get_bool()?,
            points: read_seq(cur, Point::deserialize)?,
            colors: read_seq(cur, ColorRgba::deserialize)?,
            text: cur.get_string()?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len()
            + (4 + self.ns.len())
            + 12
            + self.pose.wire_len()
            + self.scale.wire_len()
            + self.color.wire_len()
            + 8
            + 1
            + (4 + self.points.len() * 24)
            + (4 + self.colors.len() * 16)
            + (4 + self.text.len())
    }
}

impl Marker {
    /// Advance `cur` past one marker without building it: the bytes
    /// [`Marker::deserialize`] accepts, and only those.
    pub fn skip(cur: &mut &[u8]) -> Option<()> {
        Header::skip(cur)?;
        cur.skip_str().ok()?; // ns
        cur.take(4).ok()?; // id
        MarkerType::known(cur.get_i32().ok()?)?;
        MarkerAction::known(cur.get_i32().ok()?)?;
        // pose, scale, color, lifetime, frame_locked
        cur.take(56 + 24 + 16 + 8 + 1).ok()?;
        skip_seq(cur, |c| c.take(24).ok().map(drop))?; // points
        skip_seq(cur, |c| c.take(16).ok().map(drop))?; // colors
        cur.skip_str().ok()?; // text
        Some(())
    }
}

/// `visualization_msgs/MarkerArray`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MarkerArray {
    pub markers: Vec<Marker>,
}

impl RosMessage for MarkerArray {
    const DATATYPE: &'static str = "visualization_msgs/MarkerArray";
    const DEFINITION: &'static str = "\
visualization_msgs/Marker[] markers
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.markers.len() as u32);
        for m in &self.markers {
            m.serialize(buf);
        }
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(MarkerArray { markers: read_seq(cur, Marker::deserialize)? })
    }

    fn wire_len(&self) -> usize {
        4 + self.markers.iter().map(|m| m.wire_len()).sum::<usize>()
    }
}

impl MarkerArray {
    /// [`AnyMessage::walker`](crate::AnyMessage::walker)'s walk of a
    /// marker batch: the `markers` count is the `u32` at `body` (= 0,
    /// there is no header); every element is stepped over.
    pub fn walk(bytes: &[u8]) -> Option<usize> {
        let mut cur = bytes;
        skip_seq(&mut cur, Marker::skip)?;
        cur.is_empty().then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn sample_marker() -> Marker {
        let mut m = Marker::default();
        m.header.stamp = Time::new(9, 9);
        m.header.frame_id = "map".into();
        m.ns = "cortex".into();
        m.id = 17;
        m.marker_type = MarkerType::Sphere;
        m.scale = Vector3::new(0.1, 0.1, 0.1);
        m.color = ColorRgba { r: 1.0, g: 0.0, b: 0.0, a: 1.0 };
        m.points = vec![Point { x: 1.0, y: 2.0, z: 3.0 }];
        m.text = "landmark".into();
        m
    }

    #[test]
    fn marker_round_trip() {
        let m = sample_marker();
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_len());
        assert_eq!(Marker::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn marker_array_round_trip() {
        let arr = MarkerArray { markers: vec![sample_marker(), Marker::default()] };
        let bytes = arr.to_bytes();
        assert_eq!(bytes.len(), arr.wire_len());
        assert_eq!(MarkerArray::from_bytes(&bytes).unwrap(), arr);
    }

    #[test]
    fn unknown_marker_type_is_rejected() {
        let mut bytes = sample_marker().to_bytes();
        // type field sits after header + ns + id
        let off = sample_marker().header.wire_len() + 4 + "cortex".len() + 4;
        bytes[off..off + 4].copy_from_slice(&77i32.to_le_bytes());
        assert!(Marker::from_bytes(&bytes).is_err());
    }
}
