//! The [`RosMessage`] trait and dynamic message handling.

use crate::md5;
use crate::wire::{WireError, WireRead};

/// A serializable ROS1 message type.
///
/// Implementations mirror ROS1's generated message classes: a datatype name
/// (`package/Type`), the full `.msg` definition text (stored verbatim in bag
/// connection records), and little-endian field serialization.
pub trait RosMessage: Sized {
    /// Fully qualified datatype, e.g. `sensor_msgs/Imu`.
    const DATATYPE: &'static str;
    /// The `.msg` definition text recorded in connection headers.
    const DEFINITION: &'static str;

    /// Append the wire encoding of `self` to `buf`.
    fn serialize(&self, buf: &mut Vec<u8>);

    /// Decode one message from the front of `cur`, advancing it.
    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact wire size in bytes (used to pre-size buffers).
    fn wire_len(&self) -> usize;

    /// The `md5sum` connection-header field: digest of the canonical
    /// definition text, as ROS does for type compatibility checks.
    fn md5sum() -> String {
        md5::hex_digest(Self::DEFINITION.as_bytes())
    }

    /// Serialize into a fresh, exactly-sized buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.serialize(&mut buf);
        debug_assert_eq!(buf.len(), self.wire_len(), "wire_len mismatch for {}", Self::DATATYPE);
        buf
    }

    /// Decode from an exact buffer, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut cur = bytes;
        let msg = Self::deserialize(&mut cur)?;
        if !cur.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} decode left {} trailing bytes",
                Self::DATATYPE,
                cur.len()
            )));
        }
        Ok(msg)
    }
}

/// Type metadata for a message class, independent of any instance — what a
/// bag *connection record* carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageDescriptor {
    pub datatype: String,
    pub md5sum: String,
    pub definition: String,
}

impl MessageDescriptor {
    pub fn of<M: RosMessage>() -> Self {
        MessageDescriptor {
            datatype: M::DATATYPE.to_owned(),
            md5sum: M::md5sum(),
            definition: M::DEFINITION.to_owned(),
        }
    }
}

/// A walk of one datatype's wire form: [`AnyMessage::decode`] without the
/// message. It returns `Some(body)` for exactly the byte strings `decode`
/// accepts — every length prefix in bounds, every string UTF-8, every
/// enum a known constant, no byte left over — allocates nothing and
/// builds nothing. `body` is the offset of the first field after the
/// message's leading `Header` (0 for a type without one); a caller that
/// holds it can read any field of the fixed layout in place.
pub type Walk = fn(&[u8]) -> Option<usize>;

/// A dynamically typed message: any of the concrete types the BORA
/// workloads use, or an opaque payload for types this crate does not model.
///
/// Bags and BORA containers move messages as raw bytes; `AnyMessage` is the
/// decoded view used by examples and analysis code.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyMessage {
    Image(crate::sensor_msgs::Image),
    CameraInfo(crate::sensor_msgs::CameraInfo),
    Imu(crate::sensor_msgs::Imu),
    TfMessage(crate::tf2_msgs::TfMessage),
    MarkerArray(crate::visualization_msgs::MarkerArray),
    /// A message of a type this crate has no struct for.
    Opaque {
        datatype: String,
        bytes: Vec<u8>,
    },
}

impl AnyMessage {
    /// Decode `bytes` according to `datatype`; unknown types are kept opaque.
    pub fn decode(datatype: &str, bytes: &[u8]) -> Result<Self, WireError> {
        use crate::{sensor_msgs, tf2_msgs, visualization_msgs};
        Ok(match datatype {
            sensor_msgs::Image::DATATYPE => {
                AnyMessage::Image(sensor_msgs::Image::from_bytes(bytes)?)
            }
            sensor_msgs::CameraInfo::DATATYPE => {
                AnyMessage::CameraInfo(sensor_msgs::CameraInfo::from_bytes(bytes)?)
            }
            sensor_msgs::Imu::DATATYPE => AnyMessage::Imu(sensor_msgs::Imu::from_bytes(bytes)?),
            tf2_msgs::TfMessage::DATATYPE => {
                AnyMessage::TfMessage(tf2_msgs::TfMessage::from_bytes(bytes)?)
            }
            visualization_msgs::MarkerArray::DATATYPE => {
                AnyMessage::MarkerArray(visualization_msgs::MarkerArray::from_bytes(bytes)?)
            }
            other => AnyMessage::Opaque { datatype: other.to_owned(), bytes: bytes.to_vec() },
        })
    }

    /// The [`Walk`] of `datatype`'s wire form, `None` for a type
    /// [`AnyMessage::decode`] keeps opaque.
    pub fn walker(datatype: &str) -> Option<Walk> {
        use crate::{sensor_msgs, tf2_msgs, visualization_msgs};
        Some(match datatype {
            sensor_msgs::Image::DATATYPE => sensor_msgs::Image::walk,
            sensor_msgs::CameraInfo::DATATYPE => sensor_msgs::CameraInfo::walk,
            sensor_msgs::Imu::DATATYPE => sensor_msgs::Imu::walk,
            tf2_msgs::TfMessage::DATATYPE => tf2_msgs::TfMessage::walk,
            visualization_msgs::MarkerArray::DATATYPE => visualization_msgs::MarkerArray::walk,
            _ => return None,
        })
    }

    /// The datatype string of the contained message.
    pub fn datatype(&self) -> &str {
        match self {
            AnyMessage::Image(_) => crate::sensor_msgs::Image::DATATYPE,
            AnyMessage::CameraInfo(_) => crate::sensor_msgs::CameraInfo::DATATYPE,
            AnyMessage::Imu(_) => crate::sensor_msgs::Imu::DATATYPE,
            AnyMessage::TfMessage(_) => crate::tf2_msgs::TfMessage::DATATYPE,
            AnyMessage::MarkerArray(_) => crate::visualization_msgs::MarkerArray::DATATYPE,
            AnyMessage::Opaque { datatype, .. } => datatype,
        }
    }

    /// Re-encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AnyMessage::Image(m) => m.to_bytes(),
            AnyMessage::CameraInfo(m) => m.to_bytes(),
            AnyMessage::Imu(m) => m.to_bytes(),
            AnyMessage::TfMessage(m) => m.to_bytes(),
            AnyMessage::MarkerArray(m) => m.to_bytes(),
            AnyMessage::Opaque { bytes, .. } => bytes.clone(),
        }
    }
}

/// Helper used by generated-style code: read a length-prefixed sequence of
/// `T` messages.
pub fn read_seq<'a, T, R, F>(cur: &mut R, mut read_one: F) -> Result<Vec<T>, WireError>
where
    R: WireRead<'a>,
    F: FnMut(&mut R) -> Result<T, WireError>,
{
    let n = cur.get_u32()? as usize;
    // Sanity bound: each element needs at least one byte on the wire.
    if n > cur.remaining() {
        return Err(WireError::BadLength(n as u64));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_one(cur)?);
    }
    Ok(out)
}

/// [`read_seq`] without the `Vec`: the same count check, `skip_one` in
/// place of `read_one` — `Some` exactly when `read_seq` would be `Ok`.
pub fn skip_seq(cur: &mut &[u8], mut skip_one: impl FnMut(&mut &[u8]) -> Option<()>) -> Option<()> {
    let n = cur.get_u32().ok()? as usize;
    if n > cur.remaining() {
        return None;
    }
    for _ in 0..n {
        skip_one(cur)?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor_msgs::Imu;

    #[test]
    fn md5sum_is_stable_and_distinct() {
        let imu = Imu::md5sum();
        let img = crate::sensor_msgs::Image::md5sum();
        assert_eq!(imu.len(), 32);
        assert_ne!(imu, img);
        assert_eq!(imu, Imu::md5sum());
    }

    #[test]
    fn descriptor_carries_definition() {
        let d = MessageDescriptor::of::<Imu>();
        assert_eq!(d.datatype, "sensor_msgs/Imu");
        assert!(d.definition.contains("angular_velocity"));
        assert_eq!(d.md5sum, Imu::md5sum());
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = Imu::default().to_bytes();
        bytes.push(0xFF);
        assert!(Imu::from_bytes(&bytes).is_err());
    }

    #[test]
    fn any_message_round_trip() {
        let mut imu = Imu::default();
        imu.angular_velocity.x = 0.25;
        let bytes = imu.to_bytes();
        let any = AnyMessage::decode(Imu::DATATYPE, &bytes).unwrap();
        assert_eq!(any.datatype(), Imu::DATATYPE);
        assert_eq!(any.encode(), bytes);
        match any {
            AnyMessage::Imu(m) => assert_eq!(m.angular_velocity.x, 0.25),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_datatype_stays_opaque() {
        let any = AnyMessage::decode("nav_msgs/Odometry", &[1, 2, 3]).unwrap();
        assert_eq!(any.datatype(), "nav_msgs/Odometry");
        assert_eq!(any.encode(), vec![1, 2, 3]);
    }
}
