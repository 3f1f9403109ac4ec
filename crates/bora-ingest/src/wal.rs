//! Write-ahead log: length-prefixed, CRC32C-framed records with
//! fsync-batched group commit.
//!
//! Frame layout: `[u32 payload_len][u32 crc32c(payload)][payload]`, where
//! the payload is `(seq u64, time u64 ns, topic string, data bytes)`. A
//! torn tail — truncated frame, short payload, or CRC mismatch — ends the
//! log: recovery keeps every frame before the first bad one and truncates
//! the rest, exactly like the container commit protocol treats a torn
//! MANIFEST as "never happened".
//!
//! Durability is batched: [`WalShard::append`] buffers encoded frames in
//! memory and [`WalShard::sync`] (called every `group_commit` records and
//! at every seal) lands them with one `append` + one `flush`, so the
//! fsync cost is amortized over the batch (counter `wal.fsync`).

use bora::checksum::crc32c;
use bora::error::{BoraError, BoraResult};
use ros_msgs::wire::{WireRead, WireWrite};
use ros_msgs::Time;
use simfs::{IoCtx, Storage};

/// Frame header: payload length + payload CRC32C.
pub const FRAME_HEADER: usize = 8;

/// One appended message, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global append sequence number (monotonic across all shards).
    pub seq: u64,
    pub topic: String,
    pub time: Time,
    pub data: Vec<u8>,
}

/// Encode one record as a framed WAL entry.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24 + rec.topic.len() + rec.data.len());
    payload.put_u64(rec.seq);
    payload.put_u64(rec.time.as_nanos());
    payload.put_string(&rec.topic);
    payload.put_byte_array(&rec.data);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.put_u32(payload.len() as u32);
    out.put_u32(crc32c(&payload));
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(mut cur: &[u8]) -> BoraResult<WalRecord> {
    let seq = cur.get_u64()?;
    let time = Time::from_nanos(cur.get_u64()?);
    let topic = cur.get_string()?;
    let data = cur.get_byte_array()?;
    if cur.remaining() != 0 {
        return Err(BoraError::Corrupt("trailing bytes in WAL payload".into()));
    }
    Ok(WalRecord { seq, topic, time, data })
}

/// Scan a WAL image: every record before the first bad frame, plus the
/// byte length of that good prefix (`== bytes.len()` iff the log is whole).
pub fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut rest = bytes;
    loop {
        let mut cur = rest;
        let (Ok(len), Ok(crc)) = (cur.get_u32(), cur.get_u32()) else {
            break; // torn tail: not even a header
        };
        let Ok(payload) = cur.take(len as usize) else {
            break; // torn tail: frame extends past EOF
        };
        if crc32c(payload) != crc {
            break; // bit rot or a torn write inside the frame
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        rest = cur;
    }
    (records, bytes.len() - rest.len())
}

/// One shard's writer: group-commit buffer + durable-record counter.
#[derive(Debug)]
pub struct WalShard {
    pub path: String,
    /// Encoded frames not yet on storage.
    buf: Vec<u8>,
    buf_records: u64,
    /// Records landed (and fsynced) in the file since the last reset.
    pub durable_records: u64,
}

impl WalShard {
    pub fn new(path: String) -> Self {
        WalShard { path, buf: Vec::new(), buf_records: 0, durable_records: 0 }
    }

    /// Buffer one record; call [`WalShard::sync`] to make it durable.
    pub fn append(&mut self, rec: &WalRecord) {
        self.buf.extend_from_slice(&encode_record(rec));
        self.buf_records += 1;
    }

    pub fn buffered_records(&self) -> u64 {
        self.buf_records
    }

    /// Land the buffered frames with one append + one fsync.
    pub fn sync<S: Storage>(&mut self, storage: &S, ctx: &mut IoCtx) -> BoraResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        storage.append(&self.path, &self.buf, ctx)?;
        storage.flush(&self.path, ctx)?;
        bora_obs::counter("wal.fsync").inc();
        self.durable_records += self.buf_records;
        self.buf.clear();
        self.buf_records = 0;
        Ok(())
    }

    /// Drop the shard's file (after a seal made its records redundant).
    /// Any still-buffered frames are discarded too — the caller sealed
    /// them out of the memtable already.
    pub fn reset<S: Storage>(&mut self, storage: &S, ctx: &mut IoCtx) -> BoraResult<()> {
        self.buf.clear();
        self.buf_records = 0;
        self.durable_records = 0;
        if storage.exists(&self.path, ctx) {
            storage.remove_file(&self.path, ctx)?;
        }
        Ok(())
    }

    /// Recover this shard: scan the file, truncate at the first bad
    /// frame (rewrite of the good prefix — the `Storage` trait has no
    /// truncate), and return the surviving records.
    pub fn recover<S: Storage>(
        &mut self,
        storage: &S,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<WalRecord>> {
        self.buf.clear();
        self.buf_records = 0;
        if !storage.exists(&self.path, ctx) {
            self.durable_records = 0;
            return Ok(Vec::new());
        }
        let bytes = storage.read_all(&self.path, ctx)?;
        let (records, good_len) = scan(&bytes);
        if good_len < bytes.len() {
            storage.remove_file(&self.path, ctx)?;
            if good_len > 0 {
                storage.append(&self.path, &bytes[..good_len], ctx)?;
            }
            storage.flush(&self.path, ctx).ok();
            bora_obs::counter("wal.torn_tail").inc();
        }
        self.durable_records = records.len() as u64;
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::MemStorage;

    fn rec(seq: u64, topic: &str, ns: u64, data: &[u8]) -> WalRecord {
        WalRecord { seq, topic: topic.into(), time: Time::from_nanos(ns), data: data.to_vec() }
    }

    #[test]
    fn frames_round_trip() {
        let records = vec![rec(0, "/imu", 100, b"alpha"), rec(1, "/camera/rgb", 250, &[0u8; 300])];
        let mut image = Vec::new();
        for r in &records {
            image.extend_from_slice(&encode_record(r));
        }
        let (out, good) = scan(&image);
        assert_eq!(out, records);
        assert_eq!(good, image.len());
    }

    #[test]
    fn torn_tail_truncates_at_first_bad_frame() {
        let a = encode_record(&rec(0, "/imu", 1, b"aa"));
        let b = encode_record(&rec(1, "/imu", 2, b"bb"));
        let mut image = a.clone();
        image.extend_from_slice(&b[..b.len() - 3]); // torn mid-frame
        let (out, good) = scan(&image);
        assert_eq!(out.len(), 1);
        assert_eq!(good, a.len());
    }

    #[test]
    fn corrupt_frame_stops_scan() {
        let a = encode_record(&rec(0, "/imu", 1, b"aa"));
        let b = encode_record(&rec(1, "/imu", 2, b"bb"));
        let mut image = a.clone();
        let mut bad = b.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF; // payload bit flip → CRC mismatch
        image.extend_from_slice(&bad);
        let (out, good) = scan(&image);
        assert_eq!(out.len(), 1);
        assert_eq!(good, a.len());
    }

    #[test]
    fn sync_lands_batch_and_is_idempotent() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut shard = WalShard::new("/w/shard-0.wal".into());
        for i in 0..5 {
            shard.append(&rec(i, "/imu", i, b"x"));
        }
        assert_eq!(shard.buffered_records(), 5);
        assert_eq!(shard.durable_records, 0, "nothing durable before the group commit");
        shard.sync(&fs, &mut ctx).unwrap();
        assert_eq!(shard.durable_records, 5);
        assert_eq!(shard.buffered_records(), 0);
        let len = fs.len("/w/shard-0.wal", &mut ctx).unwrap();
        let (records, good) = scan(&fs.read_all("/w/shard-0.wal", &mut ctx).unwrap());
        assert_eq!(records.len(), 5);
        assert_eq!(good as u64, len);
        // An empty sync is a no-op: no append, no file growth.
        shard.sync(&fs, &mut ctx).unwrap();
        assert_eq!(fs.len("/w/shard-0.wal", &mut ctx).unwrap(), len);
    }

    #[test]
    fn recover_truncates_and_replays() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut shard = WalShard::new("/w/shard-0.wal".into());
        for i in 0..3 {
            shard.append(&rec(i, "/imu", i * 10, b"data"));
        }
        shard.sync(&fs, &mut ctx).unwrap();
        // Simulate a torn append after the good records.
        fs.append("/w/shard-0.wal", &[7, 0, 0, 0, 1, 2], &mut ctx).unwrap();

        let mut fresh = WalShard::new("/w/shard-0.wal".into());
        let recovered = fresh.recover(&fs, &mut ctx).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(fresh.durable_records, 3);
        // The torn tail is gone from the medium.
        let (again, good) = scan(&fs.read_all("/w/shard-0.wal", &mut ctx).unwrap());
        assert_eq!(again.len(), 3);
        assert_eq!(good as u64, fs.len("/w/shard-0.wal", &mut ctx).unwrap());
    }
}
