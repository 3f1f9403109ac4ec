//! `tf2_msgs/TFMessage` — the `/tf` transform stream.

use crate::geometry_msgs::TransformStamped;
use crate::msg::{read_seq, skip_seq, RosMessage};
use crate::wire::{WireError, WireWrite};

/// `tf2_msgs/TFMessage`: a batch of stamped transforms. The `/tf` topic in
/// the paper's Handheld-SLAM bag carries 16,411 of these in 3.6 MB
/// (Table II, row G).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TfMessage {
    pub transforms: Vec<TransformStamped>,
}

impl RosMessage for TfMessage {
    const DATATYPE: &'static str = "tf2_msgs/TFMessage";
    const DEFINITION: &'static str = "\
geometry_msgs/TransformStamped[] transforms
";

    fn serialize(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.transforms.len() as u32);
        for t in &self.transforms {
            t.serialize(buf);
        }
    }

    fn deserialize(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TfMessage { transforms: read_seq(cur, TransformStamped::deserialize)? })
    }

    fn wire_len(&self) -> usize {
        4 + self.transforms.iter().map(|t| t.wire_len()).sum::<usize>()
    }
}

impl TfMessage {
    /// [`AnyMessage::walker`](crate::AnyMessage::walker)'s walk of a
    /// transform batch: the `transforms` count is the `u32` at `body`
    /// (= 0, there is no header); every element is stepped over.
    pub fn walk(bytes: &[u8]) -> Option<usize> {
        let mut cur = bytes;
        skip_seq(&mut cur, TransformStamped::skip)?;
        cur.is_empty().then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_msgs::Vector3;
    use crate::time::Time;

    #[test]
    fn empty_round_trip() {
        let m = TfMessage::default();
        assert_eq!(TfMessage::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn multi_transform_round_trip() {
        let mut m = TfMessage::default();
        for i in 0..3 {
            let mut ts = TransformStamped::default();
            ts.header.seq = i;
            ts.header.stamp = Time::new(i, 0);
            ts.header.frame_id = "odom".into();
            ts.child_frame_id = format!("link_{i}");
            ts.transform.translation = Vector3::new(i as f64, 0.0, 0.0);
            m.transforms.push(ts);
        }
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_len());
        assert_eq!(TfMessage::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn absurd_count_is_rejected() {
        let mut bytes = Vec::new();
        bytes.put_u32(1_000_000);
        assert!(TfMessage::from_bytes(&bytes).is_err());
    }
}
