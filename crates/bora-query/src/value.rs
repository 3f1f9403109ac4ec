//! Runtime values and the two readers of a message field.
//!
//! A query row is a `Vec<Value>`. Three builtins — `time`, `topic`,
//! `size` — never look at the payload; every other path names a field of
//! the topic's datatype (carried by the container metadata), and there
//! are two ways to read one:
//!
//! * [`Accessor`] — what a cursor uses. [`Accessor::bind`] resolves a
//!   path against a datatype *once*; [`Accessor::read`] then checks the
//!   payload with the datatype's walk (`ros_msgs::AnyMessage::walker`:
//!   the byte strings `decode` accepts, no others, nothing built) and
//!   reads the one field where it lies.
//! * [`decode_field`] — what the oracle (`run_naive`) uses: decode the
//!   whole message into an [`AnyMessage`], then [`extract_field`]. Slow,
//!   obviously right, and the only caller of `AnyMessage::decode` in this
//!   crate.
//!
//! The two vocabularies are the same by test, not by construction
//! (`tests/prop_accessor.rs` compares them bit for bit over valid and
//! mutilated payloads): a path either reader does not know, a datatype
//! without a model, and a payload its decoder rejects all read as
//! [`Value::Null`] rather than erroring — a fleet query must be runnable
//! over a mixed bag where only some topics carry the field.

use ros_msgs::msg::AnyMessage;
use ros_msgs::{RosMessage, Time, WireRead};

use crate::exec::ns_to_secs;

/// One cell of a result row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

/// One result row.
pub type Row = Vec<Value>;

impl Value {
    /// Numeric view, coercing `Int` to `f64`; `None` for everything else.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for WHERE results: only `Bool(true)` passes. `Null`
    /// (unknown field), numbers, and strings are all falsy — a filter
    /// either affirms a row or the row is dropped.
    pub fn truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Render for the CLI / CSV output.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Str(s) => s.clone(),
        }
    }

    /// Render as a JSON scalar.
    pub fn render_json(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) if v.is_finite() => format!("{v}"),
            Value::Float(_) => "null".into(),
            Value::Str(s) => bora_obs::json_string(s),
        }
    }
}

/// Comparison operators of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Evaluate `a op b`. Numbers compare after Int→Float coercion; strings
/// compare lexicographically; bools support only (in)equality. Any
/// comparison involving `Null` or mismatched types yields `false` —
/// never an error, so a filter over heterogeneous topics stays total.
pub fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    let ord = match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.partial_cmp(y),
        (Value::Bool(x), Value::Bool(y)) => match op {
            CmpOp::Eq => return x == y,
            CmpOp::Ne => return x != y,
            _ => None,
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => None,
        },
    };
    match ord {
        None => false,
        Some(o) => match op {
            CmpOp::Eq => o == std::cmp::Ordering::Equal,
            CmpOp::Ne => o != std::cmp::Ordering::Equal,
            CmpOp::Lt => o == std::cmp::Ordering::Less,
            CmpOp::Le => o != std::cmp::Ordering::Greater,
            CmpOp::Gt => o == std::cmp::Ordering::Greater,
            CmpOp::Ge => o != std::cmp::Ordering::Less,
        },
    }
}

/// Seconds-as-f64 view of a stamp inside a message (`header.stamp`),
/// through [`ns_to_secs`] like the `time` builtin and window starts: a
/// message stamped at its record time compares equal to `time`.
pub fn time_to_value(t: Time) -> Value {
    Value::Float(ns_to_secs(t.as_nanos()))
}

/// Where a bound field lies in a payload its walk accepted.
#[derive(Debug, Clone, Copy)]
enum At {
    /// Offset from the payload's start: the leading header's own fields
    /// and the element count of a headerless array message.
    Start(usize),
    /// Offset from the walk's `body` (the end of the leading header).
    Body(usize),
    /// `.1` bytes past the end of the string that starts at `body + .0`.
    PastStr(usize, usize),
}

/// Wire type of a bound field, and with it the [`Value`] it reads as.
#[derive(Debug, Clone, Copy)]
enum Ty {
    U32,
    F64,
    Stamp,
    Str,
}

/// A field path bound to one datatype: the datatype's walk plus where
/// the field lies once the walk has accepted a payload.
#[derive(Debug, Clone, Copy)]
pub struct Accessor {
    walk: ros_msgs::Walk,
    at: At,
    ty: Ty,
}

impl Accessor {
    /// Bind `parts` for messages of `datatype`. `None` — a constant
    /// `Null` — for a datatype `AnyMessage::decode` keeps opaque and for a
    /// path outside [`extract_field`]'s vocabulary; the table below is
    /// that vocabulary, path for path.
    pub fn bind(datatype: &str, parts: &[String]) -> Option<Accessor> {
        use ros_msgs::sensor_msgs::{CameraInfo, Image, Imu};
        use ros_msgs::{tf2_msgs::TfMessage, visualization_msgs::MarkerArray};
        let walk = AnyMessage::walker(datatype)?;
        let path: Vec<&str> = parts.iter().map(String::as_str).collect();
        let axis = |c: &str, of: &str| (c.len() == 1).then(|| of.find(c)).flatten();
        let (at, ty) = match (datatype, path.as_slice()) {
            (Imu::DATATYPE | Image::DATATYPE | CameraInfo::DATATYPE, ["header", f]) => match *f {
                "seq" => (At::Start(0), Ty::U32),
                "stamp" => (At::Start(4), Ty::Stamp),
                "frame_id" => (At::Start(12), Ty::Str),
                _ => return None,
            },
            (Imu::DATATYPE, ["orientation", c]) => (At::Body(8 * axis(c, "xyzw")?), Ty::F64),
            (Imu::DATATYPE, ["angular_velocity", c]) => {
                (At::Body(104 + 8 * axis(c, "xyz")?), Ty::F64)
            }
            (Imu::DATATYPE, ["linear_acceleration", c]) => {
                (At::Body(200 + 8 * axis(c, "xyz")?), Ty::F64)
            }
            (Image::DATATYPE | CameraInfo::DATATYPE, ["height"]) => (At::Body(0), Ty::U32),
            (Image::DATATYPE | CameraInfo::DATATYPE, ["width"]) => (At::Body(4), Ty::U32),
            (Image::DATATYPE, ["encoding"]) | (CameraInfo::DATATYPE, ["distortion_model"]) => {
                (At::Body(8), Ty::Str)
            }
            (Image::DATATYPE, ["step"]) => (At::PastStr(8, 1), Ty::U32),
            (TfMessage::DATATYPE, ["transforms"]) | (MarkerArray::DATATYPE, ["markers"]) => {
                (At::Start(0), Ty::U32)
            }
            _ => return None,
        };
        Some(Accessor { walk, at, ty })
    }

    /// Read the field out of `payload`: `Null` unless the walk accepts
    /// it, else one little-endian read (a string is copied out). No
    /// message is built, and nothing is allocated for a number.
    pub fn read(&self, payload: &[u8]) -> Value {
        self.try_read(payload).unwrap_or(Value::Null)
    }

    fn try_read(&self, p: &[u8]) -> Option<Value> {
        let body = (self.walk)(p)?;
        let at = match self.at {
            At::Start(o) => o,
            At::Body(o) => body + o,
            At::PastStr(s, o) => {
                let mut cur = p.get(body + s..)?;
                cur.get_str().ok()?;
                p.len() - cur.len() + o
            }
        };
        let mut cur = p.get(at..)?;
        Some(match self.ty {
            Ty::U32 => Value::Int(cur.get_u32().ok()? as i64),
            Ty::F64 => Value::Float(cur.get_f64().ok()?),
            Ty::Stamp => time_to_value(cur.get_time().ok()?),
            Ty::Str => Value::Str(cur.get_str().ok()?.to_owned()),
        })
    }
}

/// The oracle's reader: decode the whole message, then [`extract_field`].
/// `Null` for a topic without a datatype and for a payload that does not
/// decode.
pub fn decode_field(datatype: Option<&str>, payload: &[u8], parts: &[String]) -> Value {
    datatype
        .and_then(|dt| AnyMessage::decode(dt, payload).ok())
        .map_or(Value::Null, |m| extract_field(&m, parts))
}

/// Resolve a non-builtin field path against a decoded message. Unknown
/// paths and opaque messages yield `Null`.
pub fn extract_field(msg: &AnyMessage, parts: &[String]) -> Value {
    fn seg(parts: &[String], i: usize) -> &str {
        parts.get(i).map(String::as_str).unwrap_or("")
    }
    let vec3 = |v: &ros_msgs::geometry_msgs::Vector3, c: &str| match c {
        "x" => Value::Float(v.x),
        "y" => Value::Float(v.y),
        "z" => Value::Float(v.z),
        _ => Value::Null,
    };
    let header = |h: &ros_msgs::std_msgs::Header, c: &str| match c {
        "seq" => Value::Int(h.seq as i64),
        "frame_id" => Value::Str(h.frame_id.clone()),
        "stamp" => time_to_value(h.stamp),
        _ => Value::Null,
    };
    match msg {
        AnyMessage::Imu(imu) => match (seg(parts, 0), parts.len()) {
            ("angular_velocity", 2) => vec3(&imu.angular_velocity, seg(parts, 1)),
            ("linear_acceleration", 2) => vec3(&imu.linear_acceleration, seg(parts, 1)),
            ("orientation", 2) => match seg(parts, 1) {
                "x" => Value::Float(imu.orientation.x),
                "y" => Value::Float(imu.orientation.y),
                "z" => Value::Float(imu.orientation.z),
                "w" => Value::Float(imu.orientation.w),
                _ => Value::Null,
            },
            ("header", 2) => header(&imu.header, seg(parts, 1)),
            _ => Value::Null,
        },
        AnyMessage::Image(img) => match (seg(parts, 0), parts.len()) {
            ("width", 1) => Value::Int(img.width as i64),
            ("height", 1) => Value::Int(img.height as i64),
            ("step", 1) => Value::Int(img.step as i64),
            ("encoding", 1) => Value::Str(img.encoding.clone()),
            ("header", 2) => header(&img.header, seg(parts, 1)),
            _ => Value::Null,
        },
        AnyMessage::CameraInfo(ci) => match (seg(parts, 0), parts.len()) {
            ("width", 1) => Value::Int(ci.width as i64),
            ("height", 1) => Value::Int(ci.height as i64),
            ("distortion_model", 1) => Value::Str(ci.distortion_model.clone()),
            ("header", 2) => header(&ci.header, seg(parts, 1)),
            _ => Value::Null,
        },
        AnyMessage::TfMessage(tf) => match (seg(parts, 0), parts.len()) {
            ("transforms", 1) => Value::Int(tf.transforms.len() as i64),
            _ => Value::Null,
        },
        AnyMessage::MarkerArray(ma) => match (seg(parts, 0), parts.len()) {
            ("markers", 1) => Value::Int(ma.markers.len() as i64),
            _ => Value::Null,
        },
        AnyMessage::Opaque { .. } => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_msgs::sensor_msgs::Imu;
    use ros_msgs::RosMessage;

    #[test]
    fn comparisons_coerce_numbers() {
        assert!(compare(CmpOp::Eq, &Value::Int(3), &Value::Float(3.0)));
        assert!(compare(CmpOp::Lt, &Value::Float(2.5), &Value::Int(3)));
        assert!(!compare(CmpOp::Eq, &Value::Null, &Value::Null));
        assert!(!compare(CmpOp::Lt, &Value::Str("a".into()), &Value::Int(1)));
        assert!(compare(CmpOp::Ne, &Value::Bool(true), &Value::Bool(false)));
        assert!(!compare(CmpOp::Lt, &Value::Bool(true), &Value::Bool(false)));
        assert!(compare(CmpOp::Gt, &Value::Str("b".into()), &Value::Str("a".into())));
    }

    #[test]
    fn imu_fields_extract() {
        let mut imu = Imu::default();
        imu.angular_velocity.x = 0.25;
        imu.header.seq = 7;
        let any = AnyMessage::decode(Imu::DATATYPE, &imu.to_bytes()).unwrap();
        let path = |s: &str| s.split('.').map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(extract_field(&any, &path("angular_velocity.x")), Value::Float(0.25));
        assert_eq!(extract_field(&any, &path("header.seq")), Value::Int(7));
        assert_eq!(extract_field(&any, &path("no.such.field")), Value::Null);
    }
}
