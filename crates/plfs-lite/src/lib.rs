//! `plfs-lite`: a PLFS-style log-structured container middleware.
//!
//! PLFS (Bent et al., SC'09) transparently turns each logical file into a
//! container of per-writer append logs plus index files mapping logical
//! extents to physical log locations. It was designed for N-to-1
//! checkpoint writes; the BORA paper (Fig. 3) measures it as the closest
//! existing I/O middleware and finds it *hurts* bag workloads: every write
//! pays an extra index append, and reads must resolve logical extents
//! through the index with no awareness of ROS semantics.
//!
//! [`PlfsStorage`] implements [`simfs::Storage`], so the unmodified
//! `rosbag` writer/reader runs on top of it — exactly how the paper ran
//! `rosbag` over PLFS-on-Ext4/XFS. A logical file `/a/b.bag` is stored as
//!
//! ```text
//! /a/b.bag.plfs/
//!     data.0      ← append log (writer 0)
//!     index.0     ← one 28-byte entry per write
//! ```
//!
//! The contrast with BORA is the whole point: both use containers, but
//! PLFS maps *byte extents* while BORA maps *message semantics* (topics,
//! timestamps).

#![forbid(unsafe_code)]

pub mod interval;

use std::collections::HashMap;

use parking_lot::Mutex;

use interval::{Extent, IntervalMap};
use simfs::{DirEntry, EntryKind, FsError, FsResult, IoCtx, Metadata, Storage};

/// Per-operation FUSE interposition cost: PLFS is FUSE-mounted (paper
/// Table IV lists its interposition as "FUSE or Library"), so every
/// logical read/write pays a user-kernel-user round trip.
const FUSE_OP_NS: u64 = 50_000;

/// Suffix marking a logical file's container directory.
const CONTAINER_SUFFIX: &str = ".plfs";
/// Index entry size on disk: logical_off u64 + len u32 + phys_off u64 +
/// timestamp u64.
const INDEX_ENTRY_SIZE: usize = 28;

fn container_dir(path: &str) -> String {
    format!("{path}{CONTAINER_SUFFIX}")
}

fn data_log(path: &str, writer: u32) -> String {
    format!("{}/data.{writer}", container_dir(path))
}

fn index_log(path: &str, writer: u32) -> String {
    format!("{}/index.{writer}", container_dir(path))
}

/// Cached per-file state: the resolved logical→physical interval map and
/// the data log's current length.
struct FileState {
    map: IntervalMap,
    data_len: u64,
    /// Monotonic write sequence for latest-wins overlay.
    seq: u64,
}

impl FileState {
    fn empty() -> Self {
        FileState { map: IntervalMap::new(), data_len: 0, seq: 0 }
    }
}

/// PLFS-style middleware over any inner storage.
pub struct PlfsStorage<S> {
    inner: S,
    state: Mutex<HashMap<String, FileState>>,
}

impl<S: Storage> PlfsStorage<S> {
    pub fn new(inner: S) -> Self {
        PlfsStorage { inner, state: Mutex::new(HashMap::new()) }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Load (or fetch cached) file state; reads the index log on first
    /// touch — PLFS's index-resolution cost at open time.
    fn load_state<R>(
        &self,
        path: &str,
        ctx: &mut IoCtx,
        f: impl FnOnce(&mut FileState) -> R,
    ) -> FsResult<R> {
        let mut guard = self.state.lock();
        if !guard.contains_key(path) {
            let idx_path = index_log(path, 0);
            if !self.inner.exists(&idx_path, ctx) {
                return Err(FsError::NotFound(path.to_owned()));
            }
            let bytes = self.inner.read_all(&idx_path, ctx)?;
            if bytes.len() % INDEX_ENTRY_SIZE != 0 {
                return Err(FsError::Io(format!("corrupt PLFS index for {path}")));
            }
            let mut st = FileState::empty();
            for chunk in bytes.chunks_exact(INDEX_ENTRY_SIZE) {
                let logical = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
                let len = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
                let phys = u64::from_le_bytes(chunk[12..20].try_into().unwrap());
                st.map.insert(Extent { logical, len: len as u64, phys });
                st.seq += 1;
                st.data_len = st.data_len.max(phys + len as u64);
            }
            guard.insert(path.to_owned(), st);
        }
        Ok(f(guard.get_mut(path).unwrap()))
    }

    /// Record one write: append payload to the data log, append an index
    /// entry, update the in-memory map.
    fn record_write(&self, path: &str, logical: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        let phys = self.inner.append(&data_log(path, 0), data, ctx)?;
        let mut entry = Vec::with_capacity(INDEX_ENTRY_SIZE);
        entry.extend_from_slice(&logical.to_le_bytes());
        entry.extend_from_slice(&(data.len() as u32).to_le_bytes());
        entry.extend_from_slice(&phys.to_le_bytes());
        entry.extend_from_slice(&0u64.to_le_bytes()); // timestamp slot
        self.inner.append(&index_log(path, 0), &entry, ctx)?;

        let mut guard = self.state.lock();
        let st = guard.entry(path.to_owned()).or_insert_with(FileState::empty);
        st.map.insert(Extent { logical, len: data.len() as u64, phys });
        st.seq += 1;
        st.data_len = st.data_len.max(phys + data.len() as u64);
        Ok(())
    }
}

impl<S: Storage> Storage for PlfsStorage<S> {
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        if self.inner.exists(&container_dir(path), ctx) {
            return Err(FsError::AlreadyExists(path.to_owned()));
        }
        self.inner.mkdir_all(&container_dir(path), ctx)?;
        self.inner.create(&data_log(path, 0), ctx)?;
        self.inner.create(&index_log(path, 0), ctx)?;
        self.state.lock().insert(path.to_owned(), FileState::empty());
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        ctx.charge_ns(FUSE_OP_NS);
        if !self.inner.exists(&container_dir(path), ctx) {
            self.create(path, ctx)?;
        }
        let logical = self.load_state(path, ctx, |st| st.map.logical_len())?;
        self.record_write(path, logical, data, ctx)?;
        Ok(logical)
    }

    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        ctx.charge_ns(FUSE_OP_NS);
        let len = self.load_state(path, ctx, |st| st.map.logical_len())?;
        if offset > len {
            return Err(FsError::OutOfBounds {
                path: path.to_owned(),
                offset,
                len: data.len() as u64,
                file_len: len,
            });
        }
        self.record_write(path, offset, data, ctx)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        ctx.charge_ns(FUSE_OP_NS);
        let segments = self.load_state(path, ctx, |st| {
            if offset + len as u64 > st.map.logical_len() {
                None
            } else {
                Some(st.map.resolve(offset, len as u64))
            }
        })?;
        let Some(segments) = segments else {
            let file_len = self.len(path, ctx)?;
            return Err(FsError::OutOfBounds {
                path: path.to_owned(),
                offset,
                len: len as u64,
                file_len,
            });
        };
        // Each resolved segment is a separate (potentially random) read of
        // the data log — PLFS's read-amplification on non-checkpoint
        // workloads.
        let mut out = vec![0u8; len];
        let log = data_log(path, 0);
        for seg in segments {
            let bytes = self.inner.read_at(&log, seg.phys, seg.len as usize, ctx)?;
            let dst = (seg.logical - offset) as usize;
            out[dst..dst + seg.len as usize].copy_from_slice(&bytes);
        }
        Ok(out)
    }

    fn len(&self, path: &str, ctx: &mut IoCtx) -> FsResult<u64> {
        self.load_state(path, ctx, |st| st.map.logical_len())
    }

    fn exists(&self, path: &str, ctx: &mut IoCtx) -> bool {
        self.inner.exists(&container_dir(path), ctx) || self.inner.exists(path, ctx)
    }

    fn stat(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Metadata> {
        if self.inner.exists(&container_dir(path), ctx) {
            Ok(Metadata { kind: EntryKind::File, len: self.len(path, ctx)? })
        } else {
            self.inner.stat(path, ctx)
        }
    }

    fn mkdir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.mkdir_all(path, ctx)
    }

    fn read_dir(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        let mut out = Vec::new();
        for e in self.inner.read_dir(path, ctx)? {
            if let Some(stem) = e.name.strip_suffix(CONTAINER_SUFFIX) {
                out.push(DirEntry { name: stem.to_owned(), kind: EntryKind::File });
            } else {
                out.push(e);
            }
        }
        Ok(out)
    }

    fn remove_file(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.state.lock().remove(path);
        self.inner.remove_dir_all(&container_dir(path), ctx)
    }

    fn remove_dir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.state.lock().retain(|k, _| !simfs::path::starts_with(k, path));
        self.inner.remove_dir_all(path, ctx)
    }

    fn rename(&self, from: &str, to: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.state.lock().remove(from);
        self.inner.rename(&container_dir(from), &container_dir(to), ctx)
    }

    fn flush(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.flush(&data_log(path, 0), ctx)?;
        self.inner.flush(&index_log(path, 0), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::{DeviceModel, MemStorage, TimedStorage};

    #[test]
    fn append_and_read_back() {
        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.create("/f", &mut ctx).unwrap();
        assert_eq!(fs.append("/f", b"hello ", &mut ctx).unwrap(), 0);
        assert_eq!(fs.append("/f", b"world", &mut ctx).unwrap(), 6);
        assert_eq!(fs.len("/f", &mut ctx).unwrap(), 11);
        assert_eq!(fs.read_at("/f", 0, 11, &mut ctx).unwrap(), b"hello world");
        assert_eq!(fs.read_at("/f", 3, 5, &mut ctx).unwrap(), b"lo wo");
    }

    #[test]
    fn overwrite_latest_wins() {
        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/f", b"AAAAAAAAAA", &mut ctx).unwrap();
        fs.write_at("/f", 3, b"BBB", &mut ctx).unwrap();
        assert_eq!(fs.read_at("/f", 0, 10, &mut ctx).unwrap(), b"AAABBBAAAA");
        fs.write_at("/f", 0, b"CCCCC", &mut ctx).unwrap();
        assert_eq!(fs.read_at("/f", 0, 10, &mut ctx).unwrap(), b"CCCCCBAAAA");
    }

    #[test]
    fn state_survives_cache_eviction() {
        // Rebuild from the persisted index log (fresh PlfsStorage over the
        // same inner data).
        let inner = MemStorage::new();
        let mut ctx = IoCtx::new();
        {
            let fs = PlfsStorage::new(&inner);
            fs.append("/f", b"0123456789", &mut ctx).unwrap();
            fs.write_at("/f", 4, b"xx", &mut ctx).unwrap();
        }
        let fs = PlfsStorage::new(&inner);
        assert_eq!(fs.read_at("/f", 0, 10, &mut ctx).unwrap(), b"0123xx6789");
    }

    #[test]
    fn writes_cost_more_than_plain_fs() {
        // The paper's Fig. 3a: PLFS bag writes are ~2x plain Ext4 because
        // of the per-write index append.
        let plain = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let plfs = PlfsStorage::new(TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4()));

        let payload = vec![7u8; 4096];
        let mut c_plain = IoCtx::new();
        let mut c_plfs = IoCtx::new();
        for _ in 0..200 {
            plain.append("/f", &payload, &mut c_plain).unwrap();
            plfs.append("/f", &payload, &mut c_plfs).unwrap();
        }
        assert!(
            c_plfs.elapsed_ns() > c_plain.elapsed_ns() * 3 / 2,
            "plfs={} plain={}",
            c_plfs.elapsed_ns(),
            c_plain.elapsed_ns()
        );
    }

    #[test]
    fn rosbag_runs_unmodified_on_plfs() {
        use ros_msgs::{sensor_msgs::Imu, RosMessage, Time};
        use rosbag::{BagReader, BagWriter, BagWriterOptions};

        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        let mut w = BagWriter::create(
            &fs,
            "/b.bag",
            BagWriterOptions { chunk_size: 2048, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        for i in 0..50u32 {
            let mut imu = Imu::default();
            imu.header.seq = i;
            w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();

        let r = BagReader::open(&fs, "/b.bag", &mut ctx).unwrap();
        let msgs = r.read_messages(&["/imu"], &mut ctx).unwrap();
        assert_eq!(msgs.len(), 50);
        assert_eq!(Imu::from_bytes(&msgs[49].data).unwrap().header.seq, 49);
    }

    #[test]
    fn missing_file_errors() {
        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        assert!(matches!(fs.read_at("/ghost", 0, 1, &mut ctx), Err(FsError::NotFound(_))));
    }

    #[test]
    fn read_past_logical_end_errors() {
        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/f", b"abc", &mut ctx).unwrap();
        assert!(matches!(fs.read_at("/f", 1, 5, &mut ctx), Err(FsError::OutOfBounds { .. })));
    }

    #[test]
    fn readdir_presents_logical_names() {
        let fs = PlfsStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/dir/a.bag", b"x", &mut ctx).unwrap();
        let entries = fs.read_dir("/dir", &mut ctx).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "a.bag");
        assert_eq!(entries[0].kind, EntryKind::File);
    }
}
