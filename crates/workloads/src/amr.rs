//! A second workload family: a warehouse AMR (autonomous mobile robot).
//!
//! The paper's intro lists laser scans, GPS, odometry, and compressed
//! video among bag contents; the TUM Handheld-SLAM family has none of
//! them. This family exercises those types — planar lidar at 15 Hz,
//! wheel odometry at 50 Hz, GPS at 5 Hz, compressed camera at 10 Hz —
//! and gives the reproduction a workload whose structured data *dominates*
//! the byte volume (the opposite regime from Table II).

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use ros_msgs::nav_msgs::Odometry;
use ros_msgs::sensor_msgs::{CompressedImage, LaserScan, NavSatFix, NavSatStatus};
use ros_msgs::{RosDuration, Time};
use rosbag::{BagResult, BagWriter, BagWriterOptions};
use simfs::{IoCtx, Storage};

/// Topic name constants for the AMR family.
pub mod topic {
    pub const SCAN: &str = "/scan";
    pub const ODOM: &str = "/odom";
    pub const GPS: &str = "/gps/fix";
    pub const CAMERA: &str = "/camera/compressed";
}

/// Generator options.
#[derive(Debug, Clone, Copy)]
pub struct AmrOptions {
    /// Mission length in seconds.
    pub duration_s: f64,
    /// Lidar beams per sweep.
    pub beams: usize,
    /// Compressed frame size in bytes.
    pub frame_bytes: usize,
    pub seed: u64,
    pub start: Time,
    pub writer: BagWriterOptions,
}

impl Default for AmrOptions {
    fn default() -> Self {
        AmrOptions {
            duration_s: 60.0,
            beams: 720,
            frame_bytes: 24 * 1024,
            seed: 0xA312,
            start: Time::new(1_000, 0),
            writer: BagWriterOptions::default(),
        }
    }
}

/// Summary of a generated AMR bag.
#[derive(Debug, Clone)]
pub struct AmrBag {
    pub message_count: u64,
    pub file_len: u64,
    pub per_topic_counts: Vec<(&'static str, u64)>,
}

const RATES: [(&str, f64); 4] =
    [(topic::SCAN, 15.0), (topic::ODOM, 50.0), (topic::GPS, 5.0), (topic::CAMERA, 10.0)];

/// Generate an AMR mission bag at `path`.
pub fn generate_amr_bag<S: Storage>(
    storage: &S,
    path: &str,
    opts: &AmrOptions,
    ctx: &mut IoCtx,
) -> BagResult<AmrBag> {
    let mut w = BagWriter::create(storage, path, opts.writer, ctx)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Event interleaver over the four streams.
    let mut next: Vec<(usize, u64)> = RATES
        .iter()
        .enumerate()
        .map(|(i, _)| (i, opts.start.as_nanos() + i as u64 * 997))
        .collect();
    let end_ns = opts.start.as_nanos() + (opts.duration_s * 1e9) as u64;
    let mut counts = [0u64; 4];
    // Simulated robot state integrated over time.
    let (mut x, mut y, mut heading) = (0.0f64, 0.0f64, 0.0f64);

    loop {
        let (si, t_ns) = *next.iter().min_by_key(|(_, t)| *t).unwrap();
        if t_ns >= end_ns {
            break;
        }
        let t = Time::from_nanos(t_ns);
        match si {
            0 => {
                let mut scan = LaserScan::default();
                scan.header.seq = counts[0] as u32;
                scan.header.stamp = t;
                scan.header.frame_id = "laser".into();
                scan.angle_min = -std::f32::consts::PI;
                scan.angle_max = std::f32::consts::PI;
                scan.angle_increment = (2.0 * std::f32::consts::PI) / opts.beams as f32;
                scan.range_min = 0.1;
                scan.range_max = 30.0;
                scan.ranges = (0..opts.beams)
                    .map(|b| 2.0 + ((b as f32 * 0.13 + counts[0] as f32 * 0.05).sin() + 1.0) * 8.0)
                    .collect();
                w.write_ros_message(topic::SCAN, t, &scan, ctx)?;
            }
            1 => {
                // Integrate a wandering trajectory.
                heading += rng.random_range(-0.02..0.02);
                x += 0.02 * heading.cos();
                y += 0.02 * heading.sin();
                let mut odom = Odometry::default();
                odom.header.seq = counts[1] as u32;
                odom.header.stamp = t;
                odom.header.frame_id = "odom".into();
                odom.child_frame_id = "base_link".into();
                odom.pose.position.x = x;
                odom.pose.position.y = y;
                odom.twist.linear.x = 1.0;
                odom.twist.angular.z = heading;
                odom.pose_covariance[0] = 0.01;
                w.write_ros_message(topic::ODOM, t, &odom, ctx)?;
            }
            2 => {
                let mut fix = NavSatFix::default();
                fix.header.seq = counts[2] as u32;
                fix.header.stamp = t;
                fix.header.frame_id = "gps".into();
                fix.status = NavSatStatus::Fix;
                fix.service = 1;
                fix.latitude = 31.1791 + y * 1e-5;
                fix.longitude = 121.5907 + x * 1e-5;
                fix.altitude = 12.0;
                fix.position_covariance[0] = 2.0;
                w.write_ros_message(topic::GPS, t, &fix, ctx)?;
            }
            3 => {
                let mut img = CompressedImage::default();
                img.header.seq = counts[3] as u32;
                img.header.stamp = t;
                img.header.frame_id = "camera".into();
                img.format = "jpeg".into();
                let mut data = vec![0u8; opts.frame_bytes];
                rng.fill_bytes(&mut data);
                data[..2].copy_from_slice(&[0xFF, 0xD8]); // JPEG SOI
                img.data = data;
                w.write_ros_message(topic::CAMERA, t, &img, ctx)?;
            }
            _ => unreachable!(),
        }
        counts[si] += 1;
        let period = (1e9 / RATES[si].1) as u64;
        next[si].1 = t_ns + period;
    }

    let summary = w.close(ctx)?;
    Ok(AmrBag {
        message_count: summary.message_count,
        file_len: summary.file_len,
        per_topic_counts: RATES
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (*name, counts[i]))
            .collect(),
    })
}

/// The AMR "dock-approach replay" analysis: odometry + lidar in a short
/// window around a docking event — a realistic time-range query mix.
pub fn dock_approach_topics() -> Vec<&'static str> {
    vec![topic::ODOM, topic::SCAN]
}

/// The AMR window used by examples/tests: `[start+20 s, start+30 s)`.
pub fn dock_window(start: Time) -> (Time, Time) {
    (start + RosDuration::from_sec_f64(20.0), start + RosDuration::from_sec_f64(30.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_msgs::RosMessage;
    use rosbag::BagReader;
    use simfs::MemStorage;

    fn small() -> AmrOptions {
        AmrOptions {
            duration_s: 10.0,
            beams: 90,
            frame_bytes: 2048,
            writer: BagWriterOptions { chunk_size: 32 * 1024, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn rates_hold() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let bag = generate_amr_bag(&fs, "/amr.bag", &small(), &mut ctx).unwrap();
        let get = |n: &str| bag.per_topic_counts.iter().find(|(t, _)| *t == n).unwrap().1;
        // Rates hold to within one event (period rounding at the horizon).
        let close = |got: u64, want: u64| (got as i64 - want as i64).abs() <= 1;
        assert!(close(get(topic::ODOM), 500), "odom {}", get(topic::ODOM)); // 50 Hz x 10 s
        assert!(close(get(topic::SCAN), 150), "scan {}", get(topic::SCAN));
        assert!(close(get(topic::GPS), 50), "gps {}", get(topic::GPS));
        assert!(close(get(topic::CAMERA), 100), "camera {}", get(topic::CAMERA));
    }

    #[test]
    fn messages_decode_and_trajectory_integrates() {
        use ros_msgs::nav_msgs::Odometry;
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        generate_amr_bag(&fs, "/amr.bag", &small(), &mut ctx).unwrap();
        let r = BagReader::open(&fs, "/amr.bag", &mut ctx).unwrap();
        let odoms = r.read_messages(&[topic::ODOM], &mut ctx).unwrap();
        let first = Odometry::from_bytes(&odoms[0].data).unwrap();
        let last = Odometry::from_bytes(&odoms[odoms.len() - 1].data).unwrap();
        // The robot moved.
        let dist = ((last.pose.position.x - first.pose.position.x).powi(2)
            + (last.pose.position.y - first.pose.position.y).powi(2))
        .sqrt();
        assert!(dist > 1.0, "robot barely moved: {dist}");
    }

    #[test]
    fn deterministic() {
        let fs1 = MemStorage::new();
        let fs2 = MemStorage::new();
        let mut ctx = IoCtx::new();
        generate_amr_bag(&fs1, "/a.bag", &small(), &mut ctx).unwrap();
        generate_amr_bag(&fs2, "/a.bag", &small(), &mut ctx).unwrap();
        assert_eq!(
            fs1.read_all("/a.bag", &mut ctx).unwrap(),
            fs2.read_all("/a.bag", &mut ctx).unwrap()
        );
    }

    #[test]
    fn bora_pipeline_handles_amr_family() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let bag = generate_amr_bag(&fs, "/amr.bag", &small(), &mut ctx).unwrap();
        bora::organizer::duplicate(
            &fs,
            "/amr.bag",
            &fs,
            "/c",
            &bora::OrganizerOptions::default(),
            &mut ctx,
        )
        .unwrap();
        let b = bora::BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(b.verify(&mut ctx).unwrap(), bag.message_count);
        let (s, e) = dock_window(Time::new(1_000, 0));
        let msgs = b.read_topics_time(&dock_approach_topics(), s, e, &mut ctx).unwrap();
        // Window larger than mission? 10 s mission, window at +20 s: empty.
        assert!(msgs.is_empty());
        let (s, e) = (Time::new(1_002, 0), Time::new(1_004, 0));
        let msgs = b.read_topics_time(&dock_approach_topics(), s, e, &mut ctx).unwrap();
        // (50 + 15) Hz x 2 s, within rounding.
        assert!((128..=132).contains(&msgs.len()), "got {}", msgs.len());
    }

    /// The mission's four analyses — three whole topics and the
    /// dock-approach window — return the same messages, in the same
    /// order, through the baseline reader and through a BORA container.
    #[test]
    fn bora_and_rosbag_return_the_same_messages() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let opts = AmrOptions { duration_s: 40.0, ..small() };
        generate_amr_bag(&fs, "/amr.bag", &opts, &mut ctx).unwrap();
        let dup = bora::OrganizerOptions::default();
        bora::organizer::duplicate(&fs, "/amr.bag", &fs, "/c", &dup, &mut ctx).unwrap();
        let baseline = BagReader::open(&fs, "/amr.bag", &mut ctx).unwrap();
        let ours = bora::BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        let (s, e) = dock_window(Time::new(1_000, 0));
        let cases = [
            (vec![topic::ODOM], None),
            (vec![topic::SCAN], None),
            (vec![topic::GPS], None),
            (dock_approach_topics(), Some((s, e))),
        ];
        for (topics, window) in cases {
            let (want, got) = match window {
                None => (
                    baseline.read_messages(&topics, &mut ctx).unwrap(),
                    ours.read_topics(&topics, &mut ctx).unwrap(),
                ),
                Some((s, e)) => (
                    baseline.read_messages_time(&topics, s, e, &mut ctx).unwrap(),
                    ours.read_topics_time(&topics, s, e, &mut ctx).unwrap(),
                ),
            };
            assert!(!want.is_empty(), "{topics:?} selects nothing");
            let key = |m: &rosbag::MessageRecord| (m.topic.clone(), m.time, m.data.clone());
            let want: Vec<_> = want.iter().map(key).collect();
            assert_eq!(got.iter().map(key).collect::<Vec<_>>(), want, "{topics:?} {window:?}");
        }
    }
}
