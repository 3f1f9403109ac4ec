//! Experiment environments: platforms, scales, and workload setup helpers.

use std::sync::Arc;

use rosbag::BagWriterOptions;
use simfs::{ClusterConfig, ClusterStorage, DeviceModel, IoCtx, MemStorage, Storage, TimedStorage};
use workloads::tum::{generate_bag, GenOptions, TumBag};

/// One of the paper's evaluation platforms, as a trait object.
#[derive(Clone)]
pub struct Platform {
    pub name: &'static str,
    pub storage: Arc<dyn Storage>,
}

impl Platform {
    /// Single-node NVMe server, Ext4 (§IV.C).
    pub fn ext4() -> Self {
        Platform {
            name: "Ext4",
            storage: Arc::new(TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4())),
        }
    }

    /// Single-node NVMe server, XFS.
    pub fn xfs() -> Self {
        Platform {
            name: "XFS",
            storage: Arc::new(TimedStorage::new(MemStorage::new(), DeviceModel::nvme_xfs())),
        }
    }

    /// 4-node PVFS cluster (§IV.D).
    pub fn pvfs() -> Self {
        Platform { name: "PVFS", storage: Arc::new(ClusterStorage::new(ClusterConfig::pvfs4())) }
    }

    /// Tianhe-1A Lustre storage subsystem (§IV.E).
    pub fn tianhe() -> Self {
        Platform {
            name: "Lustre",
            storage: Arc::new(ClusterStorage::new(ClusterConfig::tianhe_lustre())),
        }
    }
}

/// Global scale configuration (CLI-settable).
///
/// `payload_scale` shrinks image payloads so paper-size workloads fit in
/// RAM. Structured messages (IMU/TF/CameraInfo/markers) keep their real
/// sizes; at the default scale the image topics still dominate the byte
/// share, as in Table II. Both baseline and BORA shrink identically, so
/// ratios are preserved. See EXPERIMENTS.md for the fidelity discussion.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Image payload scale for 2.9 GB-class bags.
    pub small: f64,
    /// Image payload scale for 21 GB-class bags.
    pub large: f64,
    /// Image payload scale for swarm (42 GB-class) bags.
    pub swarm: f64,
    /// Distinct bags materialized per swarm (robot i uses bag i mod this).
    pub swarm_distinct_bags: usize,
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            small: 1.0 / 32.0,
            large: 1.0 / 128.0,
            swarm: 1.0 / 512.0,
            swarm_distinct_bags: 2,
            seed: 0xB04A,
        }
    }
}

impl ScaleConfig {
    /// A very small configuration for integration tests.
    pub fn tiny() -> Self {
        ScaleConfig {
            small: 1.0 / 512.0,
            large: 1.0 / 2048.0,
            swarm: 1.0 / 4096.0,
            swarm_distinct_bags: 2,
            seed: 0xB04A,
        }
    }

    /// Generator options for a bag of `gb` logical gigabytes using the
    /// payload scale appropriate to its class.
    pub fn gen_for_gb(&self, gb: f64) -> GenOptions {
        let ps = if gb <= 5.0 {
            self.small
        } else if gb <= 25.0 {
            self.large
        } else {
            self.swarm
        };
        GenOptions { writer: BagWriterOptions::default(), ..GenOptions::for_gb(gb, ps, self.seed) }
    }
}

/// A prepared single-bag environment: the ordinary bag plus its BORA
/// container on the same platform.
pub struct BagEnv {
    pub platform: Platform,
    pub bag_path: String,
    pub container_root: String,
    pub bag: TumBag,
    /// Virtual time the one-time BORA duplication took.
    pub duplicate_ns: u64,
}

/// Generate a Handheld-SLAM bag of `gb` logical GB on `platform` and
/// duplicate it into a BORA container.
pub fn setup_bag(platform: Platform, gb: f64, scales: &ScaleConfig) -> BagEnv {
    let mut ctx = IoCtx::new();
    let bag_path = format!("/bags/hs_{:.1}gb.bag", gb);
    let opts = scales.gen_for_gb(gb);
    let bag = generate_bag(&platform.storage, &bag_path, &opts, &mut ctx).expect("bag generation");

    let container_root = format!("/bora/hs_{:.1}gb", gb);
    let mut dup_ctx = IoCtx::new();
    bora::organizer::duplicate(
        &platform.storage,
        &bag_path,
        &platform.storage,
        &container_root,
        &bora::OrganizerOptions::default(),
        &mut dup_ctx,
    )
    .expect("bora duplicate");

    BagEnv { platform, bag_path, container_root, bag, duplicate_ns: dup_ctx.elapsed_ns() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bora::BoraBag;

    #[test]
    fn setup_bag_builds_matching_container() {
        let env = setup_bag(Platform::ext4(), 0.05, &ScaleConfig::tiny());
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&env.platform.storage, &env.container_root, &mut ctx).unwrap();
        assert_eq!(bag.meta().message_count(), env.bag.message_count);
        assert!(env.duplicate_ns > 0);
    }

    #[test]
    fn platforms_construct() {
        for p in [Platform::ext4(), Platform::xfs(), Platform::pvfs(), Platform::tianhe()] {
            let mut ctx = IoCtx::new();
            p.storage.mkdir_all("/x", &mut ctx).unwrap();
            assert!(p.storage.exists("/x", &mut ctx));
        }
    }

    #[test]
    fn scale_selects_class() {
        let s = ScaleConfig::default();
        assert_eq!(s.gen_for_gb(2.9).payload_scale, s.small);
        assert_eq!(s.gen_for_gb(21.0).payload_scale, s.large);
        assert_eq!(s.gen_for_gb(42.0).payload_scale, s.swarm);
    }
}
