//! Write-ahead log shared by the engines.
//!
//! Records are length-prefixed with an XOR-fold checksum; durability
//! policy (fsync every N appends) is configurable per engine and is the
//! main reason transactional stores lose Fig. 2's ingest race.

use simfs::{IoCtx, Storage};

use crate::engine::{DbError, DbResult};

/// XOR-fold checksum (deliberately simple; validates framing, not crypto).
fn checksum(data: &[u8]) -> u32 {
    let mut acc: u32 = 0x9E37_79B9;
    for chunk in data.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        acc = acc.rotate_left(5) ^ u32::from_le_bytes(w);
    }
    acc
}

/// Append-only WAL over any storage backend.
pub struct Wal<S> {
    storage: S,
    path: String,
    /// fsync every `sync_every` appends (1 = per-record durability).
    sync_every: u64,
    appended: u64,
}

impl<S: Storage> Wal<S> {
    pub fn create(storage: S, path: &str, sync_every: u64, ctx: &mut IoCtx) -> DbResult<Self> {
        storage.create(path, ctx)?;
        Ok(Wal { storage, path: path.to_owned(), sync_every: sync_every.max(1), appended: 0 })
    }

    /// Append one record; fsync according to policy.
    pub fn append(&mut self, record: &[u8], ctx: &mut IoCtx) -> DbResult<()> {
        let mut framed = Vec::with_capacity(record.len() + 8);
        framed.extend_from_slice(&(record.len() as u32).to_le_bytes());
        framed.extend_from_slice(&checksum(record).to_le_bytes());
        framed.extend_from_slice(record);
        self.storage.append(&self.path, &framed, ctx)?;
        self.appended += 1;
        if self.appended.is_multiple_of(self.sync_every) {
            self.storage.flush(&self.path, ctx)?;
        }
        Ok(())
    }

    /// Final durability barrier.
    pub fn sync(&mut self, ctx: &mut IoCtx) -> DbResult<()> {
        self.storage.flush(&self.path, ctx)?;
        Ok(())
    }

    /// Replay the log, validating frames; returns the record payloads.
    /// Used by recovery tests to prove the WAL is a real WAL.
    pub fn replay(storage: &S, path: &str, ctx: &mut IoCtx) -> DbResult<Vec<Vec<u8>>> {
        let bytes = storage.read_all(path, ctx)?;
        let mut out = Vec::new();
        let mut cur = &bytes[..];
        while !cur.is_empty() {
            if cur.len() < 8 {
                return Err(DbError::Parse("truncated WAL frame header".into()));
            }
            let len = u32::from_le_bytes(cur[0..4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(cur[4..8].try_into().unwrap());
            if cur.len() < 8 + len {
                return Err(DbError::Parse("truncated WAL frame body".into()));
            }
            let body = &cur[8..8 + len];
            if checksum(body) != sum {
                return Err(DbError::Parse("WAL checksum mismatch".into()));
            }
            out.push(body.to_vec());
            cur = &cur[8 + len..];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::MemStorage;

    #[test]
    fn append_replay_round_trip() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut wal = Wal::create(&fs, "/wal", 4, &mut ctx).unwrap();
        for i in 0..10u32 {
            wal.append(&i.to_le_bytes(), &mut ctx).unwrap();
        }
        wal.sync(&mut ctx).unwrap();
        let records = Wal::replay(&&fs, "/wal", &mut ctx).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[7], 7u32.to_le_bytes());
    }

    #[test]
    fn corruption_detected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut wal = Wal::create(&fs, "/wal", 1, &mut ctx).unwrap();
        wal.append(b"hello", &mut ctx).unwrap();
        // Flip a payload byte.
        let mut bytes = fs.read_all("/wal", &mut ctx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs.remove_file("/wal", &mut ctx).unwrap();
        fs.append("/wal", &bytes, &mut ctx).unwrap();
        assert!(Wal::replay(&&fs, "/wal", &mut ctx).is_err());
    }

    #[test]
    fn sync_policy_counts_flushes() {
        use simfs::{DeviceModel, TimedStorage};
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let mut ctx = IoCtx::new();
        let mut wal = Wal::create(&fs, "/wal", 1, &mut ctx).unwrap();
        for _ in 0..5 {
            wal.append(b"x", &mut ctx).unwrap();
        }
        assert_eq!(ctx.stats.flushes, 5, "per-record fsync policy");
    }
}
