//! Compressed columnar topic blocks.
//!
//! A block-framed topic stores its `data` file as a sequence of
//! self-describing frames, each covering a fixed-size *logical* range of
//! the topic's concatenated payload bytes (`block_size`, tail block
//! shorter). Message index entries keep addressing **logical** offsets —
//! the fine index, the coarse time index, and the ingest high-water reads
//! are untouched by the physical framing.
//!
//! ```text
//! data:   [frame 0][frame 1]...[frame n-1]
//! frame:  codec u8 | unc_len u32 | phys_len u32 | crc32c u32 | payload
//! blocks: magic | version | codec | block_size | logical_len | count
//!         then per block: varint(frame_len) varint(first_time delta)
//! ```
//!
//! * The frame CRC covers the **stored** payload bytes, so a torn or
//!   bit-flipped block surfaces as a typed
//!   [`BoraError::ChecksumMismatch`] *before* any decompression runs.
//!   The 13 header bytes are *not* under it: a damaged codec tag or
//!   length fails the checks that follow it, and an LZSS frame whose
//!   `unc_len` exceeds what its stored bytes could expand to (9x) is
//!   [`BoraError::Corrupt`] before a byte is reserved for it.
//! * The per-frame codec tag lets an incompressible block fall back to
//!   raw storage even inside an LZSS container (LZSS can expand
//!   adversarial input; the fallback bounds every frame at
//!   `unc_len + FRAME_HEADER_LEN`). The encoder decides early: once a
//!   fifth of the block has produced no saving it stops searching and
//!   stores the block raw, so image blocks cost a fifth of a search, not
//!   a whole one. A block whose first fifth is noise and which only then
//!   turns compressible is stored raw too — at most four fifths of
//!   `block_size` bytes that a full pass would have shrunk.
//! * The `blocks` map file carries the physical frame lengths (prefix
//!   sums give frame offsets) plus each block's first message timestamp,
//!   delta-encoded as varints — random logical access costs one map
//!   lookup, no frame scan.
//!
//! Logical block `i` covers `[i*block_size, (i+1)*block_size)`, which is
//! exactly one buffer-pool page ([`crate::bufpool`]): the cursor fill
//! path decompresses a frame straight into the pool page that serves it.

use ros_msgs::Time;
use simfs::device::cpu;
use simfs::{IoCtx, Storage};

use crate::checksum::crc32c;
use crate::error::{BoraError, BoraResult};
use crate::layout::TopicPaths;

/// Magic of the per-topic `blocks` map file ("BLKS").
const BLOCKS_MAGIC: u32 = 0x424C_4B53;
/// Version of the `blocks` map format.
const BLOCKS_VERSION: u32 = 1;
/// Bytes of a frame header: codec + unc_len + phys_len + crc32c.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4 + 4;
/// Default logical bytes per block (= one buffer-pool page).
pub const DEFAULT_BLOCK_SIZE: u32 = 64 * 1024;

/// Payload codec of a block-framed topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Frames but no compression: framing alone buys per-block CRCs and
    /// pool-page-aligned reads.
    #[default]
    None,
    /// Per-block LZSS (the same codec rosbag chunks use).
    Lzss,
}

impl BlockCodec {
    pub fn id(self) -> u8 {
        match self {
            BlockCodec::None => 0,
            BlockCodec::Lzss => 1,
        }
    }

    pub fn from_id(id: u8) -> BoraResult<Self> {
        match id {
            0 => Ok(BlockCodec::None),
            1 => Ok(BlockCodec::Lzss),
            other => Err(BoraError::Corrupt(format!("unknown block codec id {other}"))),
        }
    }
}

impl std::fmt::Display for BlockCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockCodec::None => write!(f, "none"),
            BlockCodec::Lzss => write!(f, "lzss"),
        }
    }
}

/// Container-level block parameters (recorded in `.bora` metadata v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    pub codec: BlockCodec,
    /// Logical bytes per block; also the buffer-pool page size the
    /// container's pages decode into.
    pub block_size: u32,
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams { codec: BlockCodec::Lzss, block_size: DEFAULT_BLOCK_SIZE }
    }
}

/// One block's entry in the `blocks` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Physical offset of the frame in the `data` file.
    pub phys_off: u64,
    /// Physical frame length (header + stored payload).
    pub frame_len: u32,
    /// Timestamp of the message owning the block's first logical byte.
    pub first_time: Time,
}

/// Decoded per-topic `blocks` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    pub codec: BlockCodec,
    pub block_size: u32,
    /// Total logical (uncompressed) bytes — what the fine index tiles.
    pub logical_len: u64,
    pub entries: Vec<BlockEntry>,
}

impl BlockMap {
    /// Logical `[start, len)` range block `i` covers.
    pub fn logical_range(&self, i: usize) -> (u64, usize) {
        let start = i as u64 * self.block_size as u64;
        let len = (self.logical_len - start).min(self.block_size as u64) as usize;
        (start, len)
    }

    /// Block index covering logical offset `off`.
    pub fn block_of(&self, off: u64) -> usize {
        (off / self.block_size as u64) as usize
    }

    /// Total physical bytes of the framed `data` file.
    pub fn phys_len(&self) -> u64 {
        self.entries.iter().map(|e| e.frame_len as u64).sum()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 4);
        out.extend_from_slice(&BLOCKS_MAGIC.to_le_bytes());
        out.extend_from_slice(&BLOCKS_VERSION.to_le_bytes());
        out.push(self.codec.id());
        out.extend_from_slice(&self.block_size.to_le_bytes());
        out.extend_from_slice(&self.logical_len.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        let mut prev_time = 0u64;
        for e in &self.entries {
            put_varint(&mut out, e.frame_len as u64);
            let t = e.first_time.as_nanos();
            put_varint(&mut out, t.saturating_sub(prev_time));
            prev_time = t;
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.u32()? != BLOCKS_MAGIC {
            return Err(BoraError::Corrupt("blocks map magic mismatch".into()));
        }
        let ver = cur.u32()?;
        if ver != BLOCKS_VERSION {
            return Err(BoraError::Corrupt(format!("unsupported blocks map version {ver}")));
        }
        let codec = BlockCodec::from_id(cur.u8()?)?;
        let block_size = cur.u32()?;
        if block_size == 0 {
            return Err(BoraError::Corrupt("blocks map has zero block size".into()));
        }
        let logical_len = cur.u64()?;
        let count = cur.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        let (mut phys_off, mut prev_time) = (0u64, 0u64);
        for _ in 0..count {
            // Frame lengths decide which bytes of `data` a reader slices:
            // nothing here may wrap or truncate.
            let frame_len = u32::try_from(cur.varint()?)
                .map_err(|_| BoraError::Corrupt("blocks map frame length overflows".into()))?;
            prev_time = prev_time
                .checked_add(cur.varint()?)
                .ok_or_else(|| BoraError::Corrupt("blocks map timestamp overflows".into()))?;
            entries.push(BlockEntry {
                phys_off,
                frame_len,
                first_time: Time::from_nanos(prev_time),
            });
            phys_off += frame_len as u64;
        }
        if cur.pos != bytes.len() {
            return Err(BoraError::Corrupt("trailing bytes in blocks map".into()));
        }
        let expect_blocks = logical_len.div_ceil(block_size as u64) as usize;
        if expect_blocks != entries.len() {
            return Err(BoraError::Corrupt(format!(
                "blocks map lists {} blocks for {} logical bytes (expected {})",
                entries.len(),
                logical_len,
                expect_blocks
            )));
        }
        Ok(BlockMap { codec, block_size, logical_len, entries })
    }
}

/// Encode one frame: compress (with raw fallback when compression does
/// not pay), CRC the stored bytes, prepend the header.
pub fn encode_frame(codec: BlockCodec, logical: &[u8], ctx: &mut IoCtx) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + logical.len());
    buf.resize(FRAME_HEADER_LEN, 0);
    buf.extend_from_slice(logical);
    encode_frame_in_place(codec, buf, ctx)
}

/// [`encode_frame`] for a caller that assembled the logical bytes itself,
/// behind [`FRAME_HEADER_LEN`] bytes it left for the header. A frame
/// stored raw is that same buffer with the header filled in — no copy;
/// only a frame that compresses is a new (smaller) allocation.
///
/// The LZSS search is [`rosbag::compress::compress_bounded`]: it stops
/// after a fifth of the bytes when they do not compress, so a raw verdict
/// costs a fifth of a search and one CRC pass.
///
/// # Panics
/// If `buf` is shorter than the header it reserves.
pub fn encode_frame_in_place(codec: BlockCodec, mut buf: Vec<u8>, ctx: &mut IoCtx) -> Vec<u8> {
    let logical = &buf[FRAME_HEADER_LEN..];
    let unc_len = logical.len() as u32;
    let packed = match codec {
        BlockCodec::None => None,
        BlockCodec::Lzss => {
            ctx.charge_ns(logical.len() as u64 * cpu::COMPRESS_BYTE_NS);
            rosbag::compress::compress_bounded(logical)
        }
    };
    match packed {
        Some(packed) => {
            let mut out = Vec::with_capacity(FRAME_HEADER_LEN + packed.len());
            out.extend_from_slice(&frame_header(BlockCodec::Lzss, unc_len, &packed));
            out.extend_from_slice(&packed);
            out
        }
        None => {
            let header = frame_header(BlockCodec::None, unc_len, logical);
            buf[..FRAME_HEADER_LEN].copy_from_slice(&header);
            buf
        }
    }
}

fn frame_header(codec: BlockCodec, unc_len: u32, stored: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0] = codec.id();
    h[1..5].copy_from_slice(&unc_len.to_le_bytes());
    h[5..9].copy_from_slice(&(stored.len() as u32).to_le_bytes());
    h[9..13].copy_from_slice(&crc32c(stored).to_le_bytes());
    h
}

/// Decode one frame starting at `frame[0]`, verifying the stored-byte CRC
/// before any decompression. `path` labels the [`BoraError::ChecksumMismatch`]
/// (container-relative, like manifest verification failures). Returns the
/// logical bytes and the physical frame length consumed.
pub fn decode_frame(frame: &[u8], path: &str, ctx: &mut IoCtx) -> BoraResult<(Vec<u8>, usize)> {
    if frame.len() < FRAME_HEADER_LEN {
        return Err(BoraError::Corrupt(format!("{path}: truncated block frame header")));
    }
    let codec = BlockCodec::from_id(frame[0])?;
    let unc_len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
    let phys_len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
    let expected = u32::from_le_bytes(frame[9..13].try_into().unwrap());
    let total = FRAME_HEADER_LEN + phys_len;
    if frame.len() < total {
        return Err(BoraError::Corrupt(format!("{path}: truncated block frame payload")));
    }
    let stored = &frame[FRAME_HEADER_LEN..total];
    let actual = crc32c(stored);
    if actual != expected {
        bora_obs::counter("verify.checksum_fail").inc();
        return Err(BoraError::ChecksumMismatch { path: path.to_owned(), expected, actual });
    }
    let logical = match codec {
        BlockCodec::None => {
            if stored.len() != unc_len {
                return Err(BoraError::Corrupt(format!("{path}: raw block length mismatch")));
            }
            stored.to_vec()
        }
        BlockCodec::Lzss => {
            // `unc_len` is not under the CRC; `decompress` bounds it by
            // what `stored` can expand to before reserving anything.
            let logical = rosbag::compress::decompress(stored, unc_len)
                .map_err(|e| BoraError::Corrupt(format!("{path}: block decompress: {e}")))?;
            ctx.charge_ns(unc_len as u64 * cpu::DECOMPRESS_BYTE_NS);
            logical
        }
    };
    Ok((logical, total))
}

/// The framer of one topic's block-framed `data` file: payloads go in
/// logically, whole frames come out physically, appended to a buffer the
/// caller owns, and [`BlockWriter::finish`] hands back the `blocks` map.
/// [`crate::writer::TopicWriter`] is the one driver — it keeps the
/// pending output, the running file CRC and the physical length, exactly
/// as it does for a raw v1 `data` file.
///
/// **The framing is a function of the logical byte stream alone.** Frames
/// are cut at fixed multiples of `block_size` and [`encode_frame`] is
/// deterministic, so a frame depends only on the `block_size` logical
/// bytes it covers and on the timestamp of the message owning its first
/// byte — not on how the bytes were split into `push` calls, and not on
/// how many sittings wrote them. Every *full* frame of a finished file is
/// therefore the frame any longer stream with the same prefix produces,
/// and the framer's whole state after a prefix is (the finished frames'
/// map entries, the logical bytes of the partial last block, the
/// timestamp owning its first byte): [`BlockWriter::resume`] rebuilds it
/// from a finished topic's files.
pub struct BlockWriter {
    params: BlockParams,
    /// Pending logical bytes of the current (unfinished) block.
    buf: Vec<u8>,
    /// Timestamp owning the current block's first logical byte.
    cur_first: Option<Time>,
    entries: Vec<BlockEntry>,
    logical_len: u64,
}

impl BlockWriter {
    pub fn new(params: BlockParams) -> Self {
        BlockWriter {
            params,
            buf: Vec::with_capacity(params.block_size as usize),
            cur_first: None,
            entries: Vec::new(),
            logical_len: 0,
        }
    }

    /// Continue a finished topic: `full` are the map entries of its full
    /// frames (kept as they are — their bytes are already in `data`),
    /// `tail` the logical bytes of its final partial block (empty when the
    /// topic ended on a block boundary) and `tail_first_time` that block's
    /// `first_time`. The next [`BlockWriter::push`] behaves exactly as if
    /// this writer had framed the whole prefix itself.
    ///
    /// # Panics
    /// If `tail` does not fit inside one block — the caller decoded it
    /// from a frame and checked its length against the `blocks` map.
    pub fn resume(
        params: BlockParams,
        full: Vec<BlockEntry>,
        mut tail: Vec<u8>,
        tail_first_time: Time,
    ) -> Self {
        let block_size = params.block_size as usize;
        assert!(tail.len() < block_size, "a partial block is shorter than a block");
        tail.reserve(block_size - tail.len());
        BlockWriter {
            params,
            cur_first: (!tail.is_empty()).then_some(tail_first_time),
            logical_len: (full.len() * block_size + tail.len()) as u64,
            buf: tail,
            entries: full,
        }
    }

    /// Append one message payload; a frame is appended to `out` for every
    /// block it fills. Messages may span block boundaries.
    pub fn push(&mut self, time: Time, payload: &[u8], out: &mut Vec<u8>, ctx: &mut IoCtx) {
        // An empty payload owns no byte: it must not claim the block that
        // the next non-empty message opens.
        if self.cur_first.is_none() && !payload.is_empty() {
            self.cur_first = Some(time);
        }
        self.buf.extend_from_slice(payload);
        self.logical_len += payload.len() as u64;
        let bs = self.params.block_size as usize;
        let mut drained = false;
        while self.buf.len() >= bs {
            let rest = self.buf.split_off(bs);
            let full = std::mem::replace(&mut self.buf, rest);
            self.emit(&full, out, ctx);
            drained = true;
        }
        // Any remainder after a drain is a tail of *this* payload (the
        // pre-existing bytes were < block_size, so they all drained).
        if drained {
            self.cur_first = if self.buf.is_empty() { None } else { Some(time) };
        }
    }

    fn emit(&mut self, logical: &[u8], out: &mut Vec<u8>, ctx: &mut IoCtx) {
        let frame = encode_frame(self.params.codec, logical, ctx);
        self.entries.push(BlockEntry {
            phys_off: self.entries.last().map_or(0, |e| e.phys_off + e.frame_len as u64),
            frame_len: frame.len() as u32,
            first_time: self.cur_first.expect("block has at least one byte"),
        });
        out.extend_from_slice(&frame);
    }

    /// Append the final partial block's frame to `out` and return the
    /// finished topic's `blocks` map.
    pub fn finish(mut self, out: &mut Vec<u8>, ctx: &mut IoCtx) -> BlockMap {
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            self.emit(&tail, out, ctx);
        }
        BlockMap {
            codec: self.params.codec,
            block_size: self.params.block_size,
            logical_len: self.logical_len,
            entries: self.entries,
        }
    }
}

/// Read a whole block-framed `data` file back to logical bytes by
/// scanning its self-describing frames (no map needed).
pub fn decode_frames(data: &[u8], path: &str, ctx: &mut IoCtx) -> BoraResult<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len());
    let mut pos = 0usize;
    while pos < data.len() {
        let (logical, consumed) = decode_frame(&data[pos..], path, ctx)?;
        out.extend_from_slice(&logical);
        pos += consumed;
    }
    Ok(out)
}

/// Read one topic's `data` file as **logical** bytes, whether or not the
/// topic is block-framed (presence of the `blocks` map decides).
pub fn read_logical<S: Storage>(
    storage: &S,
    paths: &TopicPaths,
    ctx: &mut IoCtx,
) -> BoraResult<Vec<u8>> {
    if storage.exists(&paths.blocks, ctx) {
        let data = storage.read_all(&paths.data, ctx)?;
        decode_frames(&data, &paths.data, ctx)
    } else {
        Ok(storage.read_all(&paths.data, ctx)?)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> BoraResult<&[u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(BoraError::Corrupt("truncated blocks map".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> BoraResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> BoraResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> BoraResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> BoraResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(BoraError::Corrupt("varint overruns 64 bits".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: BlockCodec, block_size: u32, payloads: &[Vec<u8>]) {
        let mut ctx = IoCtx::new();
        let mut w = BlockWriter::new(BlockParams { codec, block_size });
        let (mut logical, mut frames) = (Vec::new(), Vec::new());
        for (i, p) in payloads.iter().enumerate() {
            w.push(Time::new(i as u32, 0), p, &mut frames, &mut ctx);
            logical.extend_from_slice(p);
        }
        let map = w.finish(&mut frames, &mut ctx);
        assert_eq!(map.logical_len, logical.len() as u64);
        assert_eq!(map.phys_len(), frames.len() as u64);
        let decoded = decode_frames(&frames, "t/data", &mut ctx).unwrap();
        assert_eq!(decoded, logical, "codec {codec:?} bs {block_size}");
        // Map round-trips, and per-block random access agrees.
        let map2 = BlockMap::decode(&map.encode()).unwrap();
        assert_eq!(map2, map);
        for (i, e) in map.entries.iter().enumerate() {
            let (start, len) = map.logical_range(i);
            let (block, consumed) = decode_frame(
                &frames[e.phys_off as usize..(e.phys_off + e.frame_len as u64) as usize],
                "t/data",
                &mut ctx,
            )
            .unwrap();
            assert_eq!(consumed as u32, e.frame_len);
            assert_eq!(block.as_slice(), &logical[start as usize..start as usize + len]);
        }
    }

    /// PRNG-ish bytes LZSS cannot shrink.
    fn lcg_noise(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn empty_topic() {
        roundtrip(BlockCodec::Lzss, 64, &[]);
    }

    #[test]
    fn messages_spanning_blocks() {
        let payloads: Vec<Vec<u8>> = (0u8..40).map(|i| vec![i; 37]).collect();
        for codec in [BlockCodec::None, BlockCodec::Lzss] {
            for bs in [16u32, 64, 1024] {
                roundtrip(codec, bs, &payloads);
            }
        }
    }

    #[test]
    fn incompressible_block_falls_back_to_raw() {
        // PRNG-ish bytes LZSS cannot shrink: the frame must store them
        // raw (codec tag 0) and stay within header + unc_len.
        let data = lcg_noise(4096);
        let mut ctx = IoCtx::new();
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        assert_eq!(frame[0], BlockCodec::None.id());
        assert_eq!(frame.len(), FRAME_HEADER_LEN + data.len());
        let (back, _) = decode_frame(&frame, "t/data", &mut ctx).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn noise_first_fifth_block_is_stored_raw() {
        // The bounded search's documented price: a block whose first
        // fifth is noise (the first give-up check past a fifth of 64 KiB
        // is at 16 KiB) is stored raw although the rest of it is zeros.
        // Raw means exactly header + bytes, never more.
        let mut data = lcg_noise(16 << 10);
        data.resize(64 << 10, 0);
        assert!(rosbag::compress::compress(&data).len() < data.len() / 2);
        let mut ctx = IoCtx::new();
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        assert_eq!(frame[0], BlockCodec::None.id());
        assert_eq!(frame.len(), FRAME_HEADER_LEN + data.len());
        assert_eq!(decode_frame(&frame, "t/data", &mut ctx).unwrap().0, data);
        // Less noise than that is searched on, and the zeros pay.
        let mut data = lcg_noise(12 << 10);
        data.resize(64 << 10, 0);
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        assert_eq!(frame[0], BlockCodec::Lzss.id());
        assert_eq!(decode_frame(&frame, "t/data", &mut ctx).unwrap().0, data);
    }

    #[test]
    fn in_place_raw_frame_is_the_callers_buffer() {
        let mut ctx = IoCtx::new();
        for (data, codec) in [
            (lcg_noise(5000), BlockCodec::Lzss),
            (vec![7u8; 5000], BlockCodec::None),
            (vec![7u8; 5000], BlockCodec::Lzss),
            (Vec::new(), BlockCodec::Lzss),
        ] {
            let mut buf = vec![0xEE; FRAME_HEADER_LEN];
            buf.extend_from_slice(&data);
            let before = buf.as_ptr();
            let frame = encode_frame_in_place(codec, buf, &mut ctx);
            assert_eq!(frame, encode_frame(codec, &data, &mut ctx));
            if frame[0] == BlockCodec::None.id() {
                assert_eq!(frame.as_ptr(), before, "a raw frame must not be copied");
            }
            assert_eq!(decode_frame(&frame, "t/data", &mut ctx).unwrap(), (data, frame.len()));
        }
    }

    #[test]
    fn oversized_unc_len_is_corrupt_before_allocating() {
        // The header is not under the CRC: a frame whose stored bytes
        // check out but whose `unc_len` claims 4 GiB must be refused
        // without reserving 4 GiB first.
        let mut ctx = IoCtx::new();
        let mut frame = encode_frame(BlockCodec::Lzss, &[7u8; 100], &mut ctx);
        assert_eq!(frame[0], BlockCodec::Lzss.id());
        let stored = frame.len() - FRAME_HEADER_LEN;
        assert!(stored <= 16);
        frame[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&frame, "t/data", &mut ctx) {
            Err(BoraError::Corrupt(msg)) => assert!(msg.contains("t/data"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // One past what the stored bytes could expand to is refused too;
        // an honest length that merely disagrees is a decode error.
        frame[1..5].copy_from_slice(&(9 * stored as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&frame, "t/data", &mut ctx), Err(BoraError::Corrupt(_))));
        frame[1..5].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_frame(&frame, "t/data", &mut ctx), Err(BoraError::Corrupt(_))));
    }

    #[test]
    fn corrupt_frame_is_typed_checksum_mismatch() {
        let data = vec![7u8; 500];
        let mut ctx = IoCtx::new();
        let mut frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        let mid = FRAME_HEADER_LEN + (frame.len() - FRAME_HEADER_LEN) / 2;
        frame[mid] ^= 0x20;
        match decode_frame(&frame, "imu/data", &mut ctx) {
            Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/data"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_corrupt_not_panic() {
        let data = vec![3u8; 500];
        let mut ctx = IoCtx::new();
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        for cut in [0, 5, FRAME_HEADER_LEN, frame.len() - 1] {
            assert!(decode_frame(&frame[..cut], "t/data", &mut ctx).is_err());
        }
    }

    #[test]
    fn first_times_follow_spanning_messages() {
        // block_size 10, payload 8 bytes per message: block 1 starts
        // mid-message-1, so its first_time is message 1's stamp.
        let mut ctx = IoCtx::new();
        let mut w = BlockWriter::new(BlockParams { codec: BlockCodec::None, block_size: 10 });
        let mut frames = Vec::new();
        for i in 0..4u32 {
            w.push(Time::new(i, 0), &[i as u8; 8], &mut frames, &mut ctx);
        }
        let map = w.finish(&mut frames, &mut ctx);
        // 32 logical bytes → blocks at 0..10 (msg0), 10..20 (msg1),
        // 20..30 (msg2), 30..32 (msg3).
        let firsts: Vec<u32> = map.entries.iter().map(|e| e.first_time.sec).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3]);
        assert_eq!(map.logical_len, 32);
    }

    #[test]
    fn map_rejects_corruption() {
        let map = BlockMap {
            codec: BlockCodec::Lzss,
            block_size: 64,
            logical_len: 100,
            entries: vec![
                BlockEntry { phys_off: 0, frame_len: 30, first_time: Time::new(1, 0) },
                BlockEntry { phys_off: 30, frame_len: 20, first_time: Time::new(2, 0) },
            ],
        };
        let good = map.encode();
        assert_eq!(BlockMap::decode(&good).unwrap(), map);
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(BlockMap::decode(&bad).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(BlockMap::decode(&trailing).is_err());
        assert!(BlockMap::decode(&good[..good.len() - 1]).is_err());
    }
}
