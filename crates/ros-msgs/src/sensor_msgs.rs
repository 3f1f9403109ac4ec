//! `sensor_msgs` types: `Image`, `CameraInfo` (+ `RegionOfInterest`), `Imu`.
//!
//! These are the bulk of the paper's Handheld-SLAM bag (Table II): depth and
//! RGB images account for >98% of the bytes, while `CameraInfo` and `Imu`
//! are the small structured messages whose queries BORA accelerates most.

use crate::geometry_msgs::{Quaternion, Vector3};
use crate::msg::RosMessage;
use crate::std_msgs::Header;
use crate::wire::{WireError, WireRead, WireWrite};

/// `sensor_msgs/Image` — an uncompressed camera frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Image {
    pub header: Header,
    pub height: u32,
    pub width: u32,
    /// Pixel encoding, e.g. `rgb8` or `32FC1` (TUM depth images).
    pub encoding: String,
    pub is_bigendian: u8,
    /// Row length in bytes.
    pub step: u32,
    pub data: Vec<u8>,
}

impl Image {
    /// Consistency check: `data.len() == step * height`.
    pub fn geometry_is_consistent(&self) -> bool {
        self.data.len() as u64 == self.step as u64 * self.height as u64
    }
}

impl RosMessage for Image {
    const DATATYPE: &'static str = "sensor_msgs/Image";
    const DEFINITION: &'static str = "\
std_msgs/Header header
uint32 height
uint32 width
string encoding
uint8 is_bigendian
uint32 step
uint8[] data
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_u32(self.height);
        buf.put_u32(self.width);
        buf.put_string(&self.encoding);
        buf.put_u8(self.is_bigendian);
        buf.put_u32(self.step);
        buf.put_byte_array(&self.data);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Image {
            header: Header::deserialize(cur)?,
            height: cur.get_u32()?,
            width: cur.get_u32()?,
            encoding: cur.get_string()?,
            is_bigendian: cur.get_u8()?,
            step: cur.get_u32()?,
            data: cur.get_byte_array()?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 4 + 4 + (4 + self.encoding.len()) + 1 + 4 + (4 + self.data.len())
    }
}

impl Image {
    /// [`AnyMessage::walker`](crate::AnyMessage::walker)'s walk of an
    /// image: `height` at `body`, `width` at `body + 4`, the `encoding`
    /// string at `body + 8`, `step` one byte past its end. The pixel
    /// bytes are counted, never touched.
    pub fn walk(bytes: &[u8]) -> Option<usize> {
        let mut cur = bytes;
        Header::skip(&mut cur)?;
        let body = bytes.len() - cur.len();
        cur.take(8).ok()?; // height, width
        cur.get_str().ok()?; // encoding
        cur.take(5).ok()?; // is_bigendian, step
        let data = cur.get_u32().ok()? as usize;
        (cur.len() == data).then_some(body)
    }
}

/// `sensor_msgs/RegionOfInterest` — sub-window of a camera image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionOfInterest {
    pub x_offset: u32,
    pub y_offset: u32,
    pub height: u32,
    pub width: u32,
    pub do_rectify: bool,
}

impl RosMessage for RegionOfInterest {
    const DATATYPE: &'static str = "sensor_msgs/RegionOfInterest";
    const DEFINITION: &'static str = "\
uint32 x_offset
uint32 y_offset
uint32 height
uint32 width
bool do_rectify
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.x_offset);
        buf.put_u32(self.y_offset);
        buf.put_u32(self.height);
        buf.put_u32(self.width);
        buf.put_bool(self.do_rectify);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(RegionOfInterest {
            x_offset: cur.get_u32()?,
            y_offset: cur.get_u32()?,
            height: cur.get_u32()?,
            width: cur.get_u32()?,
            do_rectify: cur.get_bool()?,
        })
    }

    fn wire_len(&self) -> usize {
        17
    }
}

/// `sensor_msgs/CameraInfo` — calibration for one camera ("CameraPose Info"
/// in the paper's Table II; the topic whose time-range query BORA speeds up
/// by 11x in Fig. 13d because the messages are tiny but the baseline still
/// indexes the whole bag).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CameraInfo {
    pub header: Header,
    pub height: u32,
    pub width: u32,
    pub distortion_model: String,
    /// Distortion coefficients (dynamic array `float64[] D`).
    pub d: Vec<f64>,
    /// Intrinsic matrix, row-major 3x3 (`float64[9] K`).
    pub k: [f64; 9],
    /// Rectification matrix (`float64[9] R`).
    pub r: [f64; 9],
    /// Projection matrix (`float64[12] P`).
    pub p: [f64; 12],
    pub binning_x: u32,
    pub binning_y: u32,
    pub roi: RegionOfInterest,
}

impl RosMessage for CameraInfo {
    const DATATYPE: &'static str = "sensor_msgs/CameraInfo";
    const DEFINITION: &'static str = "\
std_msgs/Header header
uint32 height
uint32 width
string distortion_model
float64[] D
float64[9] K
float64[9] R
float64[12] P
uint32 binning_x
uint32 binning_y
sensor_msgs/RegionOfInterest roi
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_u32(self.height);
        buf.put_u32(self.width);
        buf.put_string(&self.distortion_model);
        buf.put_u32(self.d.len() as u32);
        for v in &self.d {
            buf.put_f64(*v);
        }
        for v in &self.k {
            buf.put_f64(*v);
        }
        for v in &self.r {
            buf.put_f64(*v);
        }
        for v in &self.p {
            buf.put_f64(*v);
        }
        buf.put_u32(self.binning_x);
        buf.put_u32(self.binning_y);
        self.roi.serialize(buf);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        let header = Header::deserialize(cur)?;
        let height = cur.get_u32()?;
        let width = cur.get_u32()?;
        let distortion_model = cur.get_string()?;
        let nd = cur.get_u32()? as usize;
        if nd * 8 > cur.remaining() {
            return Err(WireError::BadLength(nd as u64));
        }
        let mut d = Vec::with_capacity(nd);
        for _ in 0..nd {
            d.push(cur.get_f64()?);
        }
        let mut k = [0.0; 9];
        for v in &mut k {
            *v = cur.get_f64()?;
        }
        let mut r = [0.0; 9];
        for v in &mut r {
            *v = cur.get_f64()?;
        }
        let mut p = [0.0; 12];
        for v in &mut p {
            *v = cur.get_f64()?;
        }
        Ok(CameraInfo {
            header,
            height,
            width,
            distortion_model,
            d,
            k,
            r,
            p,
            binning_x: cur.get_u32()?,
            binning_y: cur.get_u32()?,
            roi: RegionOfInterest::deserialize(cur)?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len()
            + 8
            + (4 + self.distortion_model.len())
            + (4 + self.d.len() * 8)
            + 9 * 8
            + 9 * 8
            + 12 * 8
            + 8
            + self.roi.wire_len()
    }
}

impl CameraInfo {
    /// [`AnyMessage::walker`](crate::AnyMessage::walker)'s walk of a
    /// calibration: `height` at `body`, `width` at `body + 4`, the
    /// `distortion_model` string at `body + 8`.
    pub fn walk(bytes: &[u8]) -> Option<usize> {
        let mut cur = bytes;
        Header::skip(&mut cur)?;
        let body = bytes.len() - cur.len();
        cur.take(8).ok()?; // height, width
        cur.get_str().ok()?; // distortion_model
        let nd = cur.get_u32().ok()? as usize;
        // D, then K + R + P (30 float64), binning (8), roi (17).
        (cur.len() == nd.checked_mul(8)?.checked_add(30 * 8 + 8 + 17)?).then_some(body)
    }
}

/// `sensor_msgs/Imu` — inertial measurement. The paper highlights that an
/// IMU message carries several 3x3 float64 covariance arrays, a structure
/// time-series databases could not represent (Section II.B).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Imu {
    pub header: Header,
    pub orientation: Quaternion,
    pub orientation_covariance: [f64; 9],
    pub angular_velocity: Vector3,
    pub angular_velocity_covariance: [f64; 9],
    pub linear_acceleration: Vector3,
    pub linear_acceleration_covariance: [f64; 9],
}

impl RosMessage for Imu {
    const DATATYPE: &'static str = "sensor_msgs/Imu";
    const DEFINITION: &'static str = "\
std_msgs/Header header
geometry_msgs/Quaternion orientation
float64[9] orientation_covariance
geometry_msgs/Vector3 angular_velocity
float64[9] angular_velocity_covariance
geometry_msgs/Vector3 linear_acceleration
float64[9] linear_acceleration_covariance
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        self.orientation.serialize(buf);
        for v in &self.orientation_covariance {
            buf.put_f64(*v);
        }
        self.angular_velocity.serialize(buf);
        for v in &self.angular_velocity_covariance {
            buf.put_f64(*v);
        }
        self.linear_acceleration.serialize(buf);
        for v in &self.linear_acceleration_covariance {
            buf.put_f64(*v);
        }
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        let header = Header::deserialize(cur)?;
        let orientation = Quaternion::deserialize(cur)?;
        let mut oc = [0.0; 9];
        for v in &mut oc {
            *v = cur.get_f64()?;
        }
        let angular_velocity = Vector3::deserialize(cur)?;
        let mut avc = [0.0; 9];
        for v in &mut avc {
            *v = cur.get_f64()?;
        }
        let linear_acceleration = Vector3::deserialize(cur)?;
        let mut lac = [0.0; 9];
        for v in &mut lac {
            *v = cur.get_f64()?;
        }
        Ok(Imu {
            header,
            orientation,
            orientation_covariance: oc,
            angular_velocity,
            angular_velocity_covariance: avc,
            linear_acceleration,
            linear_acceleration_covariance: lac,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 32 + 72 + 24 + 72 + 24 + 72
    }
}

impl Imu {
    /// [`AnyMessage::walker`](crate::AnyMessage::walker)'s walk of an
    /// inertial measurement: after the header all 37 `float64`s lie at
    /// constant offsets — `orientation` at `body`, `angular_velocity` at
    /// `body + 104`, `linear_acceleration` at `body + 200`.
    pub fn walk(bytes: &[u8]) -> Option<usize> {
        let mut cur = bytes;
        Header::skip(&mut cur)?;
        (cur.len() == 32 + 72 + 24 + 72 + 24 + 72).then(|| bytes.len() - cur.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn sample_image() -> Image {
        Image {
            header: Header { seq: 1, stamp: Time::new(100, 0), frame_id: "camera_rgb".into() },
            height: 4,
            width: 8,
            encoding: "rgb8".into(),
            is_bigendian: 0,
            step: 24,
            data: (0..96).map(|i| i as u8).collect(),
        }
    }

    #[test]
    fn image_round_trip() {
        let img = sample_image();
        let bytes = img.to_bytes();
        assert_eq!(bytes.len(), img.wire_len());
        assert_eq!(Image::from_bytes(&bytes).unwrap(), img);
    }

    #[test]
    fn image_geometry_check() {
        let mut img = sample_image();
        assert!(img.geometry_is_consistent());
        img.data.pop();
        assert!(!img.geometry_is_consistent());
    }

    #[test]
    fn camera_info_round_trip() {
        let mut ci = CameraInfo {
            height: 480,
            width: 640,
            distortion_model: "plumb_bob".into(),
            d: vec![0.1, -0.2, 0.0, 0.0, 0.05],
            ..Default::default()
        };
        ci.k[0] = 525.0;
        ci.k[4] = 525.0;
        ci.k[8] = 1.0;
        ci.p[0] = 525.0;
        let bytes = ci.to_bytes();
        assert_eq!(bytes.len(), ci.wire_len());
        assert_eq!(CameraInfo::from_bytes(&bytes).unwrap(), ci);
    }

    #[test]
    fn imu_round_trip() {
        let mut imu = Imu::default();
        imu.header.stamp = Time::new(5, 5);
        imu.orientation_covariance[4] = 0.01;
        imu.linear_acceleration = Vector3::new(0.0, 0.0, 9.81);
        let bytes = imu.to_bytes();
        assert_eq!(bytes.len(), imu.wire_len());
        assert_eq!(Imu::from_bytes(&bytes).unwrap(), imu);
    }

    #[test]
    fn camera_info_rejects_absurd_d_length() {
        let ci = CameraInfo::default();
        let mut bytes = ci.to_bytes();
        // Corrupt the D-array length prefix (after header(4+8+4+frame len=0)
        // + height(4) + width(4) + distortion string len(4)).
        let d_len_off = ci.header.wire_len() + 4 + 4 + 4 + ci.distortion_model.len();
        bytes[d_len_off..d_len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CameraInfo::from_bytes(&bytes).is_err());
    }

    #[test]
    fn imu_wire_len_matches_paper_scale() {
        // Table II: 24,367 IMU messages total 8.4 MB => ~345 B/message wire
        // size + bag record overhead. Our Imu with a short frame_id should
        // land in the low-300s.
        let mut imu = Imu::default();
        imu.header.frame_id = "imu_link".into();
        assert!((300..400).contains(&imu.wire_len()), "len={}", imu.wire_len());
    }
}

/// `sensor_msgs/LaserScan` — one sweep of a planar lidar (an unstructured
/// stream the paper lists among bag contents).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LaserScan {
    pub header: Header,
    pub angle_min: f32,
    pub angle_max: f32,
    pub angle_increment: f32,
    pub time_increment: f32,
    pub scan_time: f32,
    pub range_min: f32,
    pub range_max: f32,
    pub ranges: Vec<f32>,
    pub intensities: Vec<f32>,
}

impl RosMessage for LaserScan {
    const DATATYPE: &'static str = "sensor_msgs/LaserScan";
    const DEFINITION: &'static str = "\
std_msgs/Header header
float32 angle_min
float32 angle_max
float32 angle_increment
float32 time_increment
float32 scan_time
float32 range_min
float32 range_max
float32[] ranges
float32[] intensities
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        for v in [
            self.angle_min,
            self.angle_max,
            self.angle_increment,
            self.time_increment,
            self.scan_time,
            self.range_min,
            self.range_max,
        ] {
            buf.put_f32(v);
        }
        buf.put_u32(self.ranges.len() as u32);
        for v in &self.ranges {
            buf.put_f32(*v);
        }
        buf.put_u32(self.intensities.len() as u32);
        for v in &self.intensities {
            buf.put_f32(*v);
        }
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        let header = Header::deserialize(cur)?;
        let angle_min = cur.get_f32()?;
        let angle_max = cur.get_f32()?;
        let angle_increment = cur.get_f32()?;
        let time_increment = cur.get_f32()?;
        let scan_time = cur.get_f32()?;
        let range_min = cur.get_f32()?;
        let range_max = cur.get_f32()?;
        let read_f32s = |cur: &mut &[u8]| -> Result<Vec<f32>, WireError> {
            let n = cur.get_u32()? as usize;
            if n * 4 > cur.remaining() {
                return Err(WireError::BadLength(n as u64));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(cur.get_f32()?);
            }
            Ok(out)
        };
        let ranges = read_f32s(cur)?;
        let intensities = read_f32s(cur)?;
        Ok(LaserScan {
            header,
            angle_min,
            angle_max,
            angle_increment,
            time_increment,
            scan_time,
            range_min,
            range_max,
            ranges,
            intensities,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 28 + (4 + self.ranges.len() * 4) + (4 + self.intensities.len() * 4)
    }
}

/// GPS fix status constants (subset of `sensor_msgs/NavSatStatus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(i8)]
pub enum NavSatStatus {
    NoFix = -1,
    #[default]
    Fix = 0,
    SbasFix = 1,
    GbasFix = 2,
}

impl NavSatStatus {
    pub fn from_i8(v: i8) -> Result<Self, WireError> {
        Ok(match v {
            -1 => NavSatStatus::NoFix,
            0 => NavSatStatus::Fix,
            1 => NavSatStatus::SbasFix,
            2 => NavSatStatus::GbasFix,
            other => return Err(WireError::Invalid(format!("bad NavSatStatus {other}"))),
        })
    }
}

/// `sensor_msgs/NavSatFix` — GPS position (the "GPS locations" structured
/// data the paper's intro lists).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NavSatFix {
    pub header: Header,
    pub status: NavSatStatus,
    /// Which constellations contributed (bitmask; GPS=1, GLONASS=2, ...).
    pub service: u16,
    pub latitude: f64,
    pub longitude: f64,
    pub altitude: f64,
    pub position_covariance: [f64; 9],
    pub position_covariance_type: u8,
}

impl RosMessage for NavSatFix {
    const DATATYPE: &'static str = "sensor_msgs/NavSatFix";
    const DEFINITION: &'static str = "\
std_msgs/Header header
sensor_msgs/NavSatStatus status
float64 latitude
float64 longitude
float64 altitude
float64[9] position_covariance
uint8 position_covariance_type
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_i8(self.status as i8);
        buf.put_u16(self.service);
        buf.put_f64(self.latitude);
        buf.put_f64(self.longitude);
        buf.put_f64(self.altitude);
        for v in &self.position_covariance {
            buf.put_f64(*v);
        }
        buf.put_u8(self.position_covariance_type);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        let header = Header::deserialize(cur)?;
        let status = NavSatStatus::from_i8(cur.get_i8()?)?;
        let service = cur.get_u16()?;
        let latitude = cur.get_f64()?;
        let longitude = cur.get_f64()?;
        let altitude = cur.get_f64()?;
        let mut cov = [0.0; 9];
        for v in &mut cov {
            *v = cur.get_f64()?;
        }
        Ok(NavSatFix {
            header,
            status,
            service,
            latitude,
            longitude,
            altitude,
            position_covariance: cov,
            position_covariance_type: cur.get_u8()?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 1 + 2 + 24 + 72 + 1
    }
}

/// `sensor_msgs/CompressedImage` — an encoded camera frame (the form
/// camera drivers often publish alongside raw images).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompressedImage {
    pub header: Header,
    /// e.g. `jpeg`, `png`.
    pub format: String,
    pub data: Vec<u8>,
}

impl RosMessage for CompressedImage {
    const DATATYPE: &'static str = "sensor_msgs/CompressedImage";
    const DEFINITION: &'static str = "\
std_msgs/Header header
string format
uint8[] data
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_string(&self.format);
        buf.put_byte_array(&self.data);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CompressedImage {
            header: Header::deserialize(cur)?,
            format: cur.get_string()?,
            data: cur.get_byte_array()?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len() + 4 + self.format.len() + 4 + self.data.len()
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn laser_scan_round_trip() {
        let mut scan = LaserScan::default();
        scan.header.stamp = Time::new(4, 2);
        scan.angle_min = -1.57;
        scan.angle_max = 1.57;
        scan.angle_increment = 0.01;
        scan.range_max = 30.0;
        scan.ranges = (0..314).map(|i| 0.5 + i as f32 * 0.01).collect();
        scan.intensities = vec![100.0; 314];
        let bytes = scan.to_bytes();
        assert_eq!(bytes.len(), scan.wire_len());
        assert_eq!(LaserScan::from_bytes(&bytes).unwrap(), scan);
    }

    #[test]
    fn laser_scan_absurd_length_rejected() {
        let scan = LaserScan::default();
        let mut bytes = scan.to_bytes();
        let off = scan.header.wire_len() + 28;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(LaserScan::from_bytes(&bytes).is_err());
    }

    #[test]
    fn nav_sat_fix_round_trip() {
        let mut fix = NavSatFix {
            status: NavSatStatus::SbasFix,
            service: 1,
            latitude: 31.1791,
            longitude: 121.5907,
            altitude: 12.2,
            ..Default::default()
        };
        fix.position_covariance[0] = 2.5;
        fix.position_covariance_type = 2;
        let bytes = fix.to_bytes();
        assert_eq!(bytes.len(), fix.wire_len());
        assert_eq!(NavSatFix::from_bytes(&bytes).unwrap(), fix);
    }

    #[test]
    fn nav_sat_bad_status_rejected() {
        let fix = NavSatFix::default();
        let mut bytes = fix.to_bytes();
        let off = fix.header.wire_len();
        bytes[off] = 9;
        assert!(NavSatFix::from_bytes(&bytes).is_err());
    }

    #[test]
    fn compressed_image_round_trip() {
        let img = CompressedImage {
            format: "jpeg".into(),
            data: vec![0xFF, 0xD8, 0xFF, 0xE0, 1, 2, 3],
            ..Default::default()
        };
        assert_eq!(CompressedImage::from_bytes(&img.to_bytes()).unwrap(), img);
    }
}

/// Datatype codes for [`PointField`] (values match ROS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PointFieldType {
    Int8 = 1,
    Uint8 = 2,
    Int16 = 3,
    Uint16 = 4,
    Int32 = 5,
    Uint32 = 6,
    Float32 = 7,
    Float64 = 8,
}

impl PointFieldType {
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => PointFieldType::Int8,
            2 => PointFieldType::Uint8,
            3 => PointFieldType::Int16,
            4 => PointFieldType::Uint16,
            5 => PointFieldType::Int32,
            6 => PointFieldType::Uint32,
            7 => PointFieldType::Float32,
            8 => PointFieldType::Float64,
            other => return Err(WireError::Invalid(format!("bad PointFieldType {other}"))),
        })
    }

    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            PointFieldType::Int8 | PointFieldType::Uint8 => 1,
            PointFieldType::Int16 | PointFieldType::Uint16 => 2,
            PointFieldType::Int32 | PointFieldType::Uint32 | PointFieldType::Float32 => 4,
            PointFieldType::Float64 => 8,
        }
    }
}

/// `sensor_msgs/PointField` — one field of a point cloud's point layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointField {
    pub name: String,
    pub offset: u32,
    pub datatype: PointFieldType,
    pub count: u32,
}

impl RosMessage for PointField {
    const DATATYPE: &'static str = "sensor_msgs/PointField";
    const DEFINITION: &'static str = "\
string name
uint32 offset
uint8 datatype
uint32 count
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_string(&self.name);
        buf.put_u32(self.offset);
        buf.put_u8(self.datatype as u8);
        buf.put_u32(self.count);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PointField {
            name: cur.get_string()?,
            offset: cur.get_u32()?,
            datatype: PointFieldType::from_u8(cur.get_u8()?)?,
            count: cur.get_u32()?,
        })
    }

    fn wire_len(&self) -> usize {
        4 + self.name.len() + 9
    }
}

/// `sensor_msgs/PointCloud2` — the point-cloud format SLAM pipelines build
/// from depth images (the paper's motivating SLAM workload produces these).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointCloud2 {
    pub header: Header,
    pub height: u32,
    pub width: u32,
    pub fields: Vec<PointField>,
    pub is_bigendian: bool,
    pub point_step: u32,
    pub row_step: u32,
    pub data: Vec<u8>,
    pub is_dense: bool,
}

impl PointCloud2 {
    /// Standard XYZ float32 layout helper.
    pub fn xyz_layout() -> Vec<PointField> {
        ["x", "y", "z"]
            .iter()
            .enumerate()
            .map(|(i, n)| PointField {
                name: (*n).to_owned(),
                offset: (i * 4) as u32,
                datatype: PointFieldType::Float32,
                count: 1,
            })
            .collect()
    }

    /// Number of points implied by the dimensions.
    pub fn point_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Layout sanity: data must be `row_step * height` and `point_step`
    /// must cover every field.
    pub fn layout_is_consistent(&self) -> bool {
        let fields_end = self
            .fields
            .iter()
            .map(|f| f.offset as usize + f.datatype.size() * f.count as usize)
            .max()
            .unwrap_or(0);
        fields_end <= self.point_step as usize
            && self.row_step as u64 >= self.point_step as u64 * self.width as u64
            && self.data.len() as u64 == self.row_step as u64 * self.height as u64
    }
}

impl RosMessage for PointCloud2 {
    const DATATYPE: &'static str = "sensor_msgs/PointCloud2";
    const DEFINITION: &'static str = "\
std_msgs/Header header
uint32 height
uint32 width
sensor_msgs/PointField[] fields
bool is_bigendian
uint32 point_step
uint32 row_step
uint8[] data
bool is_dense
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        self.header.serialize(buf);
        buf.put_u32(self.height);
        buf.put_u32(self.width);
        buf.put_u32(self.fields.len() as u32);
        for f in &self.fields {
            f.serialize(buf);
        }
        buf.put_bool(self.is_bigendian);
        buf.put_u32(self.point_step);
        buf.put_u32(self.row_step);
        buf.put_byte_array(&self.data);
        buf.put_bool(self.is_dense);
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        let header = Header::deserialize(cur)?;
        let height = cur.get_u32()?;
        let width = cur.get_u32()?;
        let fields = crate::msg::read_seq(cur, PointField::deserialize)?;
        Ok(PointCloud2 {
            header,
            height,
            width,
            fields,
            is_bigendian: cur.get_bool()?,
            point_step: cur.get_u32()?,
            row_step: cur.get_u32()?,
            data: cur.get_byte_array()?,
            is_dense: cur.get_bool()?,
        })
    }

    fn wire_len(&self) -> usize {
        self.header.wire_len()
            + 8
            + 4
            + self.fields.iter().map(|f| f.wire_len()).sum::<usize>()
            + 1
            + 8
            + (4 + self.data.len())
            + 1
    }
}

#[cfg(test)]
mod pointcloud_tests {
    use super::*;

    fn sample_cloud(points: u32) -> PointCloud2 {
        let mut pc = PointCloud2::default();
        pc.header.frame_id = "map".into();
        pc.height = 1;
        pc.width = points;
        pc.fields = PointCloud2::xyz_layout();
        pc.point_step = 12;
        pc.row_step = 12 * points;
        pc.data = (0..12 * points).map(|i| i as u8).collect();
        pc.is_dense = true;
        pc
    }

    #[test]
    fn point_cloud_round_trip() {
        let pc = sample_cloud(64);
        let bytes = pc.to_bytes();
        assert_eq!(bytes.len(), pc.wire_len());
        assert_eq!(PointCloud2::from_bytes(&bytes).unwrap(), pc);
    }

    #[test]
    fn layout_checks() {
        let pc = sample_cloud(8);
        assert!(pc.layout_is_consistent());
        assert_eq!(pc.point_count(), 8);
        let mut bad = sample_cloud(8);
        bad.point_step = 8; // xyz needs 12
        assert!(!bad.layout_is_consistent());
        let mut short = sample_cloud(8);
        short.data.pop();
        assert!(!short.layout_is_consistent());
    }

    #[test]
    fn bad_field_type_rejected() {
        let pc = sample_cloud(1);
        let mut bytes = pc.to_bytes();
        // First field's datatype byte: header + h/w + field count + name(4+1) + offset(4)
        let off = pc.header.wire_len() + 8 + 4 + 5 + 4;
        bytes[off] = 99;
        assert!(PointCloud2::from_bytes(&bytes).is_err());
    }

    #[test]
    fn field_sizes() {
        assert_eq!(PointFieldType::Float64.size(), 8);
        assert_eq!(PointFieldType::Uint8.size(), 1);
        assert!(PointFieldType::from_u8(0).is_err());
    }
}
