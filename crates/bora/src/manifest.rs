//! The container `MANIFEST`: the commit record of a duplication.
//!
//! Written as the *last* file inside the staging directory before the
//! atomic rename that commits a container, the MANIFEST lists every file
//! the organizer produced — path relative to the container root, length,
//! and CRC32C — and carries a CRC32C of its own encoding so a torn or
//! bit-flipped MANIFEST is itself detectable. Every container has one:
//! a root without it is [`BoraError::Corrupt`], and a file it does not
//! list has no commit record and is never trusted. Its entries let
//! [`crate::container::BoraBag`] verify file contents lazily on read and
//! let [`crate::fsck`] verify the whole container without trusting any
//! of it.
//!
//! Paths are stored relative to the container root so a committed
//! container can be tree-copied (BORA-to-BORA) without invalidating its
//! MANIFEST.

use ros_msgs::wire::{WireRead, WireWrite};
use simfs::{IoCtx, Storage};

use crate::checksum::{crc32c, decode_envelope, encode_envelope};
use crate::error::{BoraError, BoraResult};
use crate::layout::manifest_path;

const MANIFEST_MAGIC: u32 = 0x42_4D_46_31; // "BMF1"
const MANIFEST_VERSION: u32 = 1;

/// One file's commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path relative to the container root, e.g. `imu/data` or `.bora`.
    pub path: String,
    pub len: u64,
    pub crc32c: u32,
}

/// The full commit record: every file in the container, sorted by path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Build from unordered entries; sorts by path and rejects duplicates.
    pub fn new(mut entries: Vec<ManifestEntry>) -> BoraResult<Self> {
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        for w in entries.windows(2) {
            if w[0].path == w[1].path {
                return Err(BoraError::Corrupt(format!("duplicate manifest entry {}", w[0].path)));
            }
        }
        Ok(Manifest { entries })
    }

    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Look up a file by its root-relative path.
    pub fn entry(&self, rel_path: &str) -> Option<&ManifestEntry> {
        self.entries
            .binary_search_by(|e| e.path.as_str().cmp(rel_path))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The commit record of `rel_path`; a path the MANIFEST does not list
    /// has none, and is [`BoraError::Corrupt`].
    fn committed(&self, rel_path: &str) -> BoraResult<&ManifestEntry> {
        self.entry(rel_path)
            .ok_or_else(|| BoraError::Corrupt(format!("{rel_path}: not listed in the MANIFEST")))
    }

    /// Check `bytes`, read from the file at root-relative `rel_path`,
    /// against its commit record: length and CRC32C must both match, or
    /// the read is a typed [`BoraError::ChecksumMismatch`]. A path the
    /// MANIFEST does not list is [`BoraError::Corrupt`].
    pub fn verify(&self, rel_path: &str, bytes: &[u8]) -> BoraResult<()> {
        let entry = self.committed(rel_path)?;
        let t0 = std::time::Instant::now();
        let actual = crc32c(bytes);
        bora_obs::histogram("verify.latency_ns").record(t0.elapsed().as_nanos() as u64);
        if bytes.len() as u64 != entry.len || actual != entry.crc32c {
            bora_obs::counter("verify.checksum_fail").inc();
            return Err(BoraError::ChecksumMismatch {
                path: rel_path.to_owned(),
                expected: entry.crc32c,
                actual,
            });
        }
        Ok(())
    }

    /// Read the whole of the file at root-relative `rel_path` of the
    /// container at `root` and [`Manifest::verify`] it. The listing is
    /// checked before the read, so a path without a commit record costs
    /// no I/O: bytes without one must not acquire one by being copied.
    pub fn read_committed<S: Storage>(
        &self,
        storage: &S,
        root: &str,
        rel_path: &str,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<u8>> {
        self.committed(rel_path)?;
        let bytes = storage.read_all(&format!("{}/{rel_path}", root.trim_end_matches('/')), ctx)?;
        self.verify(rel_path, &bytes)?;
        Ok(bytes)
    }

    /// The entries in the checksum envelope, so MANIFEST damage is
    /// distinguishable from data damage.
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(MANIFEST_MAGIC, |out| {
            out.put_u32(MANIFEST_VERSION);
            out.put_u32(self.entries.len() as u32);
            for e in &self.entries {
                out.put_string(&e.path);
                out.put_u64(e.len);
                out.put_u32(e.crc32c);
            }
        })
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        let entries = decode_envelope(bytes, MANIFEST_MAGIC, "manifest", |cur| {
            let ver = cur.get_u32()?;
            if ver != MANIFEST_VERSION {
                return Err(BoraError::Corrupt(format!("unsupported manifest version {ver}")));
            }
            // Path length prefix, length and CRC: 16 bytes at least.
            let n = cur.get_count(16)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(ManifestEntry {
                    path: cur.get_string()?,
                    len: cur.get_u64()?,
                    crc32c: cur.get_u32()?,
                });
            }
            Ok(entries)
        })?;
        Manifest::new(entries)
    }

    /// Load a container's MANIFEST. A root without one is
    /// [`BoraError::Corrupt`]: whatever it holds, nothing commits it.
    pub fn load<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        let path = manifest_path(root);
        if !storage.exists(&path, ctx) {
            return Err(BoraError::Corrupt(format!("{root}: no MANIFEST")));
        }
        Manifest::decode(&storage.read_all(&path, ctx)?)
    }

    /// Write the MANIFEST into `root` (normally the staging root).
    pub fn store<S: Storage>(&self, storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<()> {
        let path = manifest_path(root);
        storage.append(&path, &self.encode(), ctx)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::MemStorage;

    fn sample() -> Manifest {
        Manifest::new(vec![
            ManifestEntry { path: "imu/data".into(), len: 123, crc32c: 0xDEAD_BEEF },
            ManifestEntry { path: ".bora".into(), len: 42, crc32c: 7 },
            ManifestEntry { path: "imu/index".into(), len: 999, crc32c: 0 },
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_sorted() {
        let m = sample();
        let d = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.entries()[0].path, ".bora");
        assert_eq!(d.entry("imu/data").unwrap().len, 123);
        assert!(d.entry("nope").is_none());
    }

    #[test]
    fn duplicate_paths_rejected() {
        let r = Manifest::new(vec![
            ManifestEntry { path: "a".into(), len: 1, crc32c: 1 },
            ManifestEntry { path: "a".into(), len: 2, crc32c: 2 },
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn any_bit_flip_detected() {
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {pos} undetected");
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode();
        for keep in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..keep]).is_err(), "truncation to {keep} undetected");
        }
    }

    #[test]
    fn load_absent_is_corrupt() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/c", &mut ctx).unwrap();
        let err = Manifest::load(&fs, "/c", &mut ctx).unwrap_err();
        assert_eq!(err, BoraError::Corrupt("/c: no MANIFEST".into()));
    }

    #[test]
    fn an_unlisted_path_is_corrupt() {
        let m = sample();
        assert!(matches!(m.verify("stray/index", b"i"), Err(BoraError::Corrupt(_))));
        // The listing is checked before the read: no file, and still not
        // a storage error.
        let r = m.read_committed(&MemStorage::new(), "/c", "stray/index", &mut IoCtx::new());
        assert!(matches!(r, Err(BoraError::Corrupt(_))));
    }

    #[test]
    fn store_then_load() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/c", &mut ctx).unwrap();
        let m = sample();
        m.store(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(Manifest::load(&fs, "/c", &mut ctx).unwrap(), m);
    }
}
