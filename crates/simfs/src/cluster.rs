//! [`ClusterStorage`]: a striped multi-server filesystem model.
//!
//! Reproduces the paper's two distributed platforms:
//!
//! * **4-node PVFS cluster** ([`ClusterConfig::pvfs4`]) — four data servers,
//!   each two NVMe SSDs in RAID-0, connected by 10 GbE. No dedicated
//!   metadata server; metadata ops cost one network RTT + a server
//!   metadata op.
//! * **Tianhe-1A Lustre subsystem** ([`ClusterConfig::tianhe_lustre`]) —
//!   three object storage servers (OSS) over HDD-backed OSTs, a metadata
//!   service (MDS) whose service time is paid by every open/stat/readdir,
//!   InfiniBand 56 Gb/s fabric.
//!
//! Data bytes live in one inner [`MemStorage`] (real data paths); the
//! cluster topology exists purely in the *cost* domain: a transfer of byte
//! range `[off, off+len)` is split into stripe units, each unit charged to
//! its server, and the total time is the maximum over servers (parallel
//! service) plus the network share — exactly how a striped read behaves.

use std::collections::HashSet;
use std::sync::Mutex;

use crate::clock::{path_key, IoCtx};
use crate::device::{DeviceModel, NetModel};
use crate::error::{FsError, FsResult};
use crate::mem::MemStorage;
use crate::storage::{DirEntry, Metadata, Storage};

/// Topology and cost parameters of a simulated cluster filesystem.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    pub name: &'static str,
    pub data_servers: u32,
    pub stripe_size: u64,
    pub device: DeviceModel,
    pub net: NetModel,
    /// Metadata service time per metadata op (MDS CPU + journal). For PVFS
    /// this is small and distributed; for Lustre it is the MDS RPC cost.
    pub mds_op_ns: u64,
    /// Maximum concurrent metadata RPCs the metadata service absorbs
    /// before requests queue (models MDS saturation under a 100-process
    /// open storm).
    pub mds_parallelism: u32,
}

impl ClusterConfig {
    /// The paper's 4-node all-SSD PVFS cluster on 10 GbE (§IV.D).
    pub fn pvfs4() -> Self {
        ClusterConfig {
            name: "pvfs4",
            data_servers: 4,
            stripe_size: 64 * 1024,
            device: DeviceModel::raid0_2x_nvme(),
            net: NetModel::ten_gbe(),
            mds_op_ns: 40_000,
            mds_parallelism: 8,
        }
    }

    /// The Tianhe-1A Lustre storage subsystem (§IV.E): 3 OSS on HDD OSTs,
    /// MDS service, InfiniBand 56 Gb/s.
    pub fn tianhe_lustre() -> Self {
        ClusterConfig {
            name: "tianhe-lustre",
            data_servers: 3,
            stripe_size: 1024 * 1024,
            device: DeviceModel::hdd(),
            net: NetModel::infiniband_56g(),
            mds_op_ns: 60_000,
            mds_parallelism: 16,
        }
    }
}

/// A simulated cluster filesystem (PVFS- or Lustre-like).
pub struct ClusterStorage {
    mem: MemStorage,
    cfg: ClusterConfig,
    /// Fault injection: indices of data servers currently down. A transfer
    /// touching any dead server's stripes fails (a striped file is only as
    /// available as every server holding a piece of the requested range);
    /// metadata survives until the *whole* cluster is down (PVFS
    /// distributes it; Lustre's MDS is a separate machine).
    dead: Mutex<HashSet<u32>>,
}

impl ClusterStorage {
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterStorage { mem: MemStorage::new(), cfg, dead: Mutex::new(HashSet::new()) }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn mem(&self) -> &MemStorage {
        &self.mem
    }

    /// Mark data server `idx` dead: subsequent transfers with a stripe on
    /// it fail with [`FsError::Io`]. Out-of-range indices are ignored.
    pub fn kill_server(&self, idx: u32) {
        if idx < self.cfg.data_servers {
            self.dead.lock().unwrap().insert(idx);
        }
    }

    /// Bring data server `idx` back.
    pub fn revive_server(&self, idx: u32) {
        self.dead.lock().unwrap().remove(&idx);
    }

    /// Currently-dead data server indices (sorted).
    pub fn dead_servers(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.dead.lock().unwrap().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Fail if any stripe of `[offset, offset+len)` lands on a dead
    /// server. Checked before costing: the client learns of the fault via
    /// an RPC timeout, not by paying for the transfer.
    fn check_xfer(&self, path: &str, offset: u64, len: u64) -> FsResult<()> {
        let dead = self.dead.lock().unwrap();
        if dead.is_empty() {
            return Ok(());
        }
        // Zero-length transfers still require the first server of the
        // range to acknowledge the RPC.
        let per = self.per_server_bytes(offset, len.max(1));
        for (idx, &bytes) in per.iter().enumerate() {
            if bytes > 0 && dead.contains(&(idx as u32)) {
                return Err(FsError::Io(format!(
                    "data server {idx} down ({}: {path} [{offset}, +{len}))",
                    self.cfg.name
                )));
            }
        }
        Ok(())
    }

    /// Fail metadata ops only once every data server is gone.
    fn check_meta(&self, path: &str) -> FsResult<()> {
        let dead = self.dead.lock().unwrap();
        if dead.len() as u32 >= self.cfg.data_servers {
            return Err(FsError::Io(format!("all data servers down ({}: {path})", self.cfg.name)));
        }
        Ok(())
    }

    /// Bytes of `[offset, offset+len)` that land on each server under
    /// round-robin striping.
    fn per_server_bytes(&self, offset: u64, len: u64) -> Vec<u64> {
        let s = self.cfg.stripe_size;
        let n = self.cfg.data_servers as u64;
        let mut out = vec![0u64; n as usize];
        if len == 0 {
            return out;
        }
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe_idx = cur / s;
            let server = (stripe_idx % n) as usize;
            let stripe_end = (stripe_idx + 1) * s;
            let take = stripe_end.min(end) - cur;
            out[server] += take;
            cur += take;
        }
        out
    }

    /// Charge a striped transfer: servers work in parallel (max over
    /// servers), the fabric carries the full payload at the client's
    /// bandwidth share. A non-sequential access costs an RPC round trip;
    /// sequential continuations ride client readahead, which pipelines
    /// request latency behind the data stream (both PVFS and Lustre
    /// clients do this — without it no streaming workload could reach
    /// link bandwidth).
    fn charge_xfer(&self, path: &str, offset: u64, len: u64, write: bool, ctx: &mut IoCtx) {
        let seek = ctx.note_access(path_key(path), offset, len);
        // Contending processes per server: concurrency spread over servers.
        let share = ctx.concurrency.div_ceil(self.cfg.data_servers).max(1);
        let per_server = self.per_server_bytes(offset, len);
        let server_ns = per_server
            .iter()
            .map(|&b| {
                if b == 0 {
                    0
                } else if write {
                    self.cfg.device.write_cost_ns(b, seek, share)
                } else {
                    self.cfg.device.read_cost_ns(b, seek, share)
                }
            })
            .max()
            .unwrap_or(0);
        let share = ctx.concurrency.max(1) as u64;
        let stream_ns =
            len.saturating_mul(1_000_000_000) / (self.cfg.net.bw_bytes_per_sec / share).max(1);
        let rtt_ns = if seek { 2 * self.cfg.net.latency_ns } else { 0 };
        ctx.charge_ns(server_ns + stream_ns + rtt_ns);
        if write {
            ctx.stats.writes += 1;
            ctx.stats.bytes_written += len;
        } else {
            ctx.stats.reads += 1;
            ctx.stats.bytes_read += len;
        }
    }

    /// Charge a metadata op: network RTT + MDS service time with queueing
    /// once concurrency exceeds the MDS's parallelism.
    fn charge_meta(&self, ctx: &mut IoCtx) {
        let queue_factor = ctx.concurrency.div_ceil(self.cfg.mds_parallelism).max(1) as u64;
        ctx.charge_ns(2 * self.cfg.net.latency_ns + self.cfg.mds_op_ns * queue_factor);
        ctx.stats.meta_ops += 1;
    }
}

impl Storage for ClusterStorage {
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_meta(path)?;
        self.charge_meta(ctx);
        self.mem.create(path, ctx)
    }

    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        let off = self.mem.len(path, ctx).unwrap_or(0);
        self.check_xfer(path, off, data.len() as u64)?;
        self.charge_xfer(path, off, data.len() as u64, true, ctx);
        self.mem.append(path, data, ctx)
    }

    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        self.check_xfer(path, offset, data.len() as u64)?;
        self.charge_xfer(path, offset, data.len() as u64, true, ctx);
        self.mem.write_at(path, offset, data, ctx)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.check_xfer(path, offset, len as u64)?;
        self.charge_xfer(path, offset, len as u64, false, ctx);
        self.mem.read_at(path, offset, len, ctx)
    }

    fn read_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        let len = self.mem.len(path, ctx)?;
        self.check_xfer(path, 0, len)?;
        self.charge_xfer(path, 0, len, false, ctx);
        self.mem.read_at(path, 0, len as usize, ctx)
    }

    fn len(&self, path: &str, ctx: &mut IoCtx) -> FsResult<u64> {
        self.check_meta(path)?;
        self.charge_meta(ctx);
        self.mem.len(path, ctx)
    }

    fn exists(&self, path: &str, ctx: &mut IoCtx) -> bool {
        if self.check_meta(path).is_err() {
            return false;
        }
        self.charge_meta(ctx);
        self.mem.exists(path, ctx)
    }

    fn stat(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Metadata> {
        self.check_meta(path)?;
        self.charge_meta(ctx);
        self.mem.stat(path, ctx)
    }

    fn mkdir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_meta(path)?;
        self.charge_meta(ctx);
        self.mem.mkdir_all(path, ctx)
    }

    fn read_dir(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        self.check_meta(path)?;
        let entries = self.mem.read_dir(path, ctx)?;
        self.charge_meta(ctx);
        // Per-entry share of the directory scan RPCs.
        ctx.charge_ns(entries.len() as u64 * (self.cfg.mds_op_ns / 32).max(1));
        Ok(entries)
    }

    fn remove_file(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.charge_meta(ctx);
        self.mem.remove_file(path, ctx)
    }

    fn remove_dir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.charge_meta(ctx);
        self.mem.remove_dir_all(path, ctx)
    }

    fn rename(&self, from: &str, to: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.charge_meta(ctx);
        self.mem.rename(from, to, ctx)
    }

    fn flush(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        ctx.charge_ns(self.cfg.device.flush_ns + 2 * self.cfg.net.latency_ns);
        ctx.stats.flushes += 1;
        self.mem.flush(path, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_splits_bytes_round_robin() {
        let fs = ClusterStorage::new(ClusterConfig {
            stripe_size: 100,
            data_servers: 4,
            ..ClusterConfig::pvfs4()
        });
        // 450 bytes from offset 0: stripes 0..4 full (100 each), stripe 4
        // partial (50) lands on server 0 again.
        let per = fs.per_server_bytes(0, 450);
        assert_eq!(per, vec![150, 100, 100, 100]);
        // Offset into the middle of a stripe.
        let per = fs.per_server_bytes(150, 100);
        assert_eq!(per, vec![0, 50, 50, 0]);
    }

    #[test]
    fn zero_length_transfer_charges_nothing_to_servers() {
        let fs = ClusterStorage::new(ClusterConfig::pvfs4());
        assert_eq!(fs.per_server_bytes(123, 0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn large_read_faster_than_single_device() {
        // A striped read should beat the same bytes on one device of the
        // same model (parallel service), as long as the network is not the
        // bottleneck.
        let cfg = ClusterConfig { net: NetModel::infiniband_56g(), ..ClusterConfig::pvfs4() };
        let cluster = ClusterStorage::new(cfg);
        let single = crate::TimedStorage::new(MemStorage::new(), cfg.device);

        let data = vec![7u8; 8 * 1024 * 1024];
        let mut setup = IoCtx::new();
        cluster.append("/f", &data, &mut setup).unwrap();
        single.append("/f", &data, &mut setup).unwrap();

        let mut c1 = IoCtx::new();
        cluster.read_all("/f", &mut c1).unwrap();
        let mut c2 = IoCtx::new();
        single.read_all("/f", &mut c2).unwrap();
        assert!(c1.elapsed_ns() < c2.elapsed_ns());
    }

    #[test]
    fn mds_queues_under_open_storm() {
        let fs = ClusterStorage::new(ClusterConfig::tianhe_lustre());
        let mut solo = IoCtx::with_concurrency(1);
        let mut storm = IoCtx::with_concurrency(100);
        fs.mkdir_all("/d", &mut solo).unwrap();
        let base_solo = solo.elapsed_ns();
        fs.stat("/d", &mut solo).unwrap();
        let stat_solo = solo.elapsed_ns() - base_solo;
        fs.stat("/d", &mut storm).unwrap();
        let stat_storm = storm.elapsed_ns();
        assert!(stat_storm > stat_solo * 3, "solo={stat_solo} storm={stat_storm}");
    }

    #[test]
    fn data_round_trip() {
        let fs = ClusterStorage::new(ClusterConfig::tianhe_lustre());
        let mut ctx = IoCtx::new();
        fs.append("/bags/r0.bag", b"0123456789", &mut ctx).unwrap();
        assert_eq!(fs.read_at("/bags/r0.bag", 3, 4, &mut ctx).unwrap(), b"3456");
    }

    #[test]
    fn dead_server_fails_only_its_stripes() {
        let fs = ClusterStorage::new(ClusterConfig {
            stripe_size: 100,
            data_servers: 4,
            ..ClusterConfig::pvfs4()
        });
        let mut ctx = IoCtx::new();
        fs.append("/f", &vec![9u8; 450], &mut ctx).unwrap();

        fs.kill_server(2); // holds stripe 2 => bytes [200, 300)
        assert_eq!(fs.dead_servers(), vec![2]);
        // A range entirely on servers 0/1 still reads.
        assert_eq!(fs.read_at("/f", 0, 150, &mut ctx).unwrap().len(), 150);
        // A range touching server 2's stripe fails with an I/O error.
        match fs.read_at("/f", 150, 100, &mut ctx) {
            Err(FsError::Io(msg)) => assert!(msg.contains("server 2"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        // Whole-file read crosses every server.
        assert!(fs.read_all("/f", &mut ctx).is_err());
        // Metadata survives a single server loss.
        assert!(fs.stat("/f", &mut ctx).is_ok());

        fs.revive_server(2);
        assert_eq!(fs.read_all("/f", &mut ctx).unwrap().len(), 450);

        // Metadata fails only once every server is gone.
        (0..4).for_each(|i| fs.kill_server(i));
        assert!(fs.stat("/f", &mut ctx).is_err());
        assert!(!fs.exists("/f", &mut ctx));
        (0..4).for_each(|i| fs.revive_server(i));
        assert!(fs.dead_servers().is_empty());
        assert_eq!(fs.read_all("/f", &mut ctx).unwrap().len(), 450);
    }
}
