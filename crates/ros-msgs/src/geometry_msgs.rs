//! `geometry_msgs` primitives used by the BORA workloads.

use crate::msg::RosMessage;
use crate::std_msgs::Header;
use crate::wire::{WireError, WireRead, WireWrite};

/// `geometry_msgs/Vector3`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vector3 {
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vector3 { x, y, z }
    }
}

impl RosMessage for Vector3 {
    const DATATYPE: &'static str = "geometry_msgs/Vector3";
    const DEFINITION: &'static str = "\
float64 x
float64 y
float64 z
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_f64(self.x);
        buf.put_f64(self.y);
        buf.put_f64(self.z);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Vector3 { x: cur.get_f64()?, y: cur.get_f64()?, z: cur.get_f64()? })
    }

    fn wire_len(&self) -> usize {
        24
    }
}

/// `geometry_msgs/Point` — same layout as `Vector3`, distinct type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl RosMessage for Point {
    const DATATYPE: &'static str = "geometry_msgs/Point";
    const DEFINITION: &'static str = "\
float64 x
float64 y
float64 z
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_f64(self.x);
        buf.put_f64(self.y);
        buf.put_f64(self.z);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Point { x: cur.get_f64()?, y: cur.get_f64()?, z: cur.get_f64()? })
    }

    fn wire_len(&self) -> usize {
        24
    }
}

/// `geometry_msgs/Quaternion`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quaternion {
    pub x: f64,
    pub y: f64,
    pub z: f64,
    pub w: f64,
}

impl Default for Quaternion {
    /// Identity rotation.
    fn default() -> Self {
        Quaternion { x: 0.0, y: 0.0, z: 0.0, w: 1.0 }
    }
}

impl RosMessage for Quaternion {
    const DATATYPE: &'static str = "geometry_msgs/Quaternion";
    const DEFINITION: &'static str = "\
float64 x
float64 y
float64 z
float64 w
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_f64(self.x);
        buf.put_f64(self.y);
        buf.put_f64(self.z);
        buf.put_f64(self.w);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Quaternion {
            x: cur.get_f64()?,
            y: cur.get_f64()?,
            z: cur.get_f64()?,
            w: cur.get_f64()?,
        })
    }

    fn wire_len(&self) -> usize {
        32
    }
}

/// `geometry_msgs/Pose` — position + orientation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    pub position: Point,
    pub orientation: Quaternion,
}

impl RosMessage for Pose {
    const DATATYPE: &'static str = "geometry_msgs/Pose";
    const DEFINITION: &'static str = "\
geometry_msgs/Point position
geometry_msgs/Quaternion orientation
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.position.serialize(buf);
        self.orientation.serialize(buf);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Pose { position: Point::deserialize(cur)?, orientation: Quaternion::deserialize(cur)? })
    }

    fn wire_len(&self) -> usize {
        self.position.wire_len() + self.orientation.wire_len()
    }
}

/// `geometry_msgs/Transform` — translation + rotation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Transform {
    pub translation: Vector3,
    pub rotation: Quaternion,
}

impl RosMessage for Transform {
    const DATATYPE: &'static str = "geometry_msgs/Transform";
    const DEFINITION: &'static str = "\
geometry_msgs/Vector3 translation
geometry_msgs/Quaternion rotation
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.translation.serialize(buf);
        self.rotation.serialize(buf);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Transform {
            translation: Vector3::deserialize(cur)?,
            rotation: Quaternion::deserialize(cur)?,
        })
    }

    fn wire_len(&self) -> usize {
        self.translation.wire_len() + self.rotation.wire_len()
    }
}

/// `geometry_msgs/TransformStamped` — the payload carried by `/tf` (the
/// message the paper's Fig. 2 database experiment inserts 49,233 of).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransformStamped {
    pub header: Header,
    pub child_frame_id: String,
    pub transform: Transform,
}

impl RosMessage for TransformStamped {
    const DATATYPE: &'static str = "geometry_msgs/TransformStamped";
    const DEFINITION: &'static str = "\
std_msgs/Header header
string child_frame_id
geometry_msgs/Transform transform
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_string(&self.child_frame_id);
        self.transform.serialize(buf);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TransformStamped {
            header: Header::deserialize(cur)?,
            child_frame_id: cur.get_string()?,
            transform: Transform::deserialize(cur)?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 4 + self.child_frame_id.len() + self.transform.wire_len()
    }
}

impl TransformStamped {
    /// Advance `cur` past one stamped transform without building it: the
    /// bytes [`TransformStamped::deserialize`] accepts, and only those.
    pub fn skip(cur: &mut &[u8]) -> Option<()> {
        Header::skip(cur)?;
        cur.skip_str().ok()?; // child_frame_id
        cur.take(56).ok()?; // transform: Vector3 + Quaternion
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn vector3_round_trip() {
        let v = Vector3::new(1.0, -2.5, 3.25);
        assert_eq!(Vector3::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn quaternion_default_is_identity() {
        let q = Quaternion::default();
        assert_eq!(q.w, 1.0);
        assert_eq!(Quaternion::from_bytes(&q.to_bytes()).unwrap(), q);
    }

    #[test]
    fn transform_stamped_round_trip() {
        let mut ts = TransformStamped::default();
        ts.header.seq = 7;
        ts.header.stamp = Time::new(3, 14);
        ts.header.frame_id = "world".into();
        ts.child_frame_id = "base_link".into();
        ts.transform.translation = Vector3::new(0.5, 1.5, 2.5);
        let bytes = ts.to_bytes();
        assert_eq!(bytes.len(), ts.wire_len());
        assert_eq!(TransformStamped::from_bytes(&bytes).unwrap(), ts);
    }

    #[test]
    fn pose_round_trip() {
        let p =
            Pose { position: Point { x: 1.0, y: 2.0, z: 3.0 }, orientation: Quaternion::default() };
        assert_eq!(Pose::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
