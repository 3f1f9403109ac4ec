//! [`LocalStorage`]: passthrough to the host filesystem.
//!
//! Used by examples and integration tests that want real disk I/O (the
//! paper's "BORA on Ext4" configuration, minus FUSE). Virtual-clock charges
//! are zero — wall-clock time here *is* real time.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::clock::IoCtx;
use crate::error::{FsError, FsResult};
use crate::path::normalize;
use crate::storage::{DirEntry, EntryKind, Metadata, Storage};

/// Host-filesystem backend rooted at a directory.
///
/// Virtual paths (`/bag1/topic/data`) map to `root/bag1/topic/data`.
#[derive(Clone)]
pub struct LocalStorage {
    root: PathBuf,
}

impl LocalStorage {
    /// Create a backend rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> FsResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(LocalStorage { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn host_path(&self, raw: &str) -> FsResult<PathBuf> {
        let p = normalize(raw)?;
        Ok(self.root.join(p.trim_start_matches('/')))
    }

    fn map_err(p: &str, e: std::io::Error) -> FsError {
        match e.kind() {
            std::io::ErrorKind::NotFound => FsError::NotFound(p.to_owned()),
            std::io::ErrorKind::AlreadyExists => FsError::AlreadyExists(p.to_owned()),
            _ => FsError::Io(format!("{p}: {e}")),
        }
    }
}

impl Storage for LocalStorage {
    fn create(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        if let Some(parent) = hp.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::map_err(path, e))?;
        }
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&hp)
            .map_err(|e| Self::map_err(path, e))?;
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8], _ctx: &mut IoCtx) -> FsResult<u64> {
        let hp = self.host_path(path)?;
        if let Some(parent) = hp.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::map_err(path, e))?;
        }
        let mut f = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&hp)
            .map_err(|e| Self::map_err(path, e))?;
        let off = f.metadata().map_err(|e| Self::map_err(path, e))?.len();
        f.write_all(data).map_err(|e| Self::map_err(path, e))?;
        Ok(off)
    }

    fn write_at(&self, path: &str, offset: u64, data: &[u8], _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        let mut f =
            fs::OpenOptions::new().write(true).open(&hp).map_err(|e| Self::map_err(path, e))?;
        let len = f.metadata().map_err(|e| Self::map_err(path, e))?.len();
        if offset > len {
            return Err(FsError::OutOfBounds {
                path: path.to_owned(),
                offset,
                len: data.len() as u64,
                file_len: len,
            });
        }
        f.seek(SeekFrom::Start(offset)).map_err(|e| Self::map_err(path, e))?;
        f.write_all(data).map_err(|e| Self::map_err(path, e))?;
        Ok(())
    }

    fn read_at(&self, path: &str, offset: u64, len: usize, _ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        let hp = self.host_path(path)?;
        let mut f = fs::File::open(&hp).map_err(|e| Self::map_err(path, e))?;
        let file_len = f.metadata().map_err(|e| Self::map_err(path, e))?.len();
        if offset + len as u64 > file_len {
            return Err(FsError::OutOfBounds {
                path: path.to_owned(),
                offset,
                len: len as u64,
                file_len,
            });
        }
        f.seek(SeekFrom::Start(offset)).map_err(|e| Self::map_err(path, e))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| Self::map_err(path, e))?;
        Ok(buf)
    }

    fn len(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<u64> {
        let hp = self.host_path(path)?;
        let md = fs::metadata(&hp).map_err(|e| Self::map_err(path, e))?;
        if md.is_dir() {
            return Err(FsError::IsADirectory(path.to_owned()));
        }
        Ok(md.len())
    }

    fn exists(&self, path: &str, _ctx: &mut IoCtx) -> bool {
        self.host_path(path).map(|hp| hp.exists()).unwrap_or(false)
    }

    fn stat(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<Metadata> {
        let hp = self.host_path(path)?;
        let md = fs::metadata(&hp).map_err(|e| Self::map_err(path, e))?;
        Ok(Metadata {
            kind: if md.is_dir() { EntryKind::Dir } else { EntryKind::File },
            len: if md.is_dir() { 0 } else { md.len() },
        })
    }

    fn mkdir_all(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        fs::create_dir_all(&hp).map_err(|e| Self::map_err(path, e))
    }

    fn read_dir(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        let hp = self.host_path(path)?;
        let mut out = Vec::new();
        for entry in fs::read_dir(&hp).map_err(|e| Self::map_err(path, e))? {
            let entry = entry.map_err(|e| Self::map_err(path, e))?;
            let md = entry.metadata().map_err(|e| Self::map_err(path, e))?;
            out.push(DirEntry {
                name: entry.file_name().to_string_lossy().into_owned(),
                kind: if md.is_dir() { EntryKind::Dir } else { EntryKind::File },
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn remove_file(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        fs::remove_file(&hp).map_err(|e| Self::map_err(path, e))
    }

    fn remove_dir_all(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        if hp.is_dir() {
            fs::remove_dir_all(&hp).map_err(|e| Self::map_err(path, e))
        } else {
            fs::remove_file(&hp).map_err(|e| Self::map_err(path, e))
        }
    }

    fn rename(&self, from: &str, to: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let from_hp = self.host_path(from)?;
        let to_hp = self.host_path(to)?;
        if to_hp.exists() {
            return Err(FsError::AlreadyExists(to.to_owned()));
        }
        if let Some(parent) = to_hp.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::map_err(to, e))?;
        }
        fs::rename(&from_hp, &to_hp).map_err(|e| Self::map_err(from, e))
    }

    fn flush(&self, path: &str, _ctx: &mut IoCtx) -> FsResult<()> {
        let hp = self.host_path(path)?;
        let f = fs::File::open(&hp).map_err(|e| Self::map_err(path, e))?;
        f.sync_all().map_err(|e| Self::map_err(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_fs(tag: &str) -> LocalStorage {
        let dir =
            std::env::temp_dir().join(format!("simfs-local-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        LocalStorage::new(dir).unwrap()
    }

    #[test]
    fn round_trip_on_disk() {
        let fs = tmp_fs("rt");
        let mut ctx = IoCtx::new();
        fs.append("/bag/topic/data", b"hello disk", &mut ctx).unwrap();
        assert_eq!(fs.read_all("/bag/topic/data", &mut ctx).unwrap(), b"hello disk");
        assert_eq!(fs.read_at("/bag/topic/data", 6, 4, &mut ctx).unwrap(), b"disk");
        let entries = fs.read_dir("/bag", &mut ctx).unwrap();
        assert_eq!(entries[0].name, "topic");
        fs.remove_dir_all("/bag", &mut ctx).unwrap();
        assert!(!fs.exists("/bag", &mut ctx));
    }

    #[test]
    fn rename_and_stat() {
        let fs = tmp_fs("mv");
        let mut ctx = IoCtx::new();
        fs.append("/a/f", b"xy", &mut ctx).unwrap();
        fs.rename("/a/f", "/b/g", &mut ctx).unwrap();
        let md = fs.stat("/b/g", &mut ctx).unwrap();
        assert_eq!(md.len, 2);
        assert!(!fs.exists("/a/f", &mut ctx));
    }

    #[test]
    fn read_out_of_bounds() {
        let fs = tmp_fs("oob");
        let mut ctx = IoCtx::new();
        fs.append("/f", b"abc", &mut ctx).unwrap();
        assert!(matches!(fs.read_at("/f", 1, 10, &mut ctx), Err(FsError::OutOfBounds { .. })));
    }
}
