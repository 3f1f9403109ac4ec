//! CRC32C (Castagnoli) — the container's end-to-end data checksum.
//!
//! CRC32C is what real storage stacks (iSCSI, ext4 metadata, Btrfs,
//! RocksDB) use for the same job — not least because x86 has had an
//! instruction for exactly this polynomial since SSE4.2. [`Crc32c::update`]
//! uses it where the running CPU has it (`std::arch`, checked at run
//! time, eight bytes per instruction) and the table-driven path below
//! everywhere else: other architectures, and x86_64 parts older than
//! Nehalem.
//!
//! The software path is slice-by-8 over eight 256-entry tables for the
//! reflected polynomial `0x82F63B78`, all built at compile time. Each
//! iteration folds eight input bytes with eight independent table lookups
//! instead of one, cutting the serial dependency chain to one XOR tree per
//! eight bytes — the classic Kounavis/Berry layout that zlib, the Linux
//! kernel and RocksDB use when hardware CRC is unavailable. It is also the
//! reference the hardware path is tested against, byte for byte. The
//! streaming form lets the organizer fold each buffered append into a
//! running digest without re-reading what it just wrote.
//!
//! [`encode_envelope`] and [`decode_envelope`] are the one CRC32C-trailed
//! file envelope; every small self-describing file is sealed in it.

use ros_msgs::wire::{WireRead, WireWrite};

use crate::error::{BoraError, BoraResult};

const POLY: u32 = 0x82F6_3B78; // CRC-32C, reflected

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[j]` advances a
/// byte's contribution `j` further positions through the polynomial, so
/// eight lookups — one per table — process eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC32C accumulator.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        self.state = match update_hw(self.state, bytes) {
            Some(state) => state,
            None => update_slice8(self.state, bytes),
        };
    }

    /// [`Crc32c::update`] on the table-driven path whatever the CPU
    /// offers, so the differential tests exercise it on hosts that have
    /// the instruction.
    #[cfg(test)]
    fn update_slice8(&mut self, bytes: &[u8]) {
        self.state = update_slice8(self.state, bytes);
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

fn update_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The SSE4.2 `crc32` instruction over `bytes`, or `None` where the CPU
/// (or the target) has none.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn update_hw(crc: u32, bytes: &[u8]) -> Option<u32> {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    #[target_feature(enable = "sse4.2")]
    fn sse42(crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        let mut crc = crc as u64;
        for chunk in &mut chunks {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut crc = crc as u32;
        for &b in chunks.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `sse42` needs only the SSE4.2 instructions it is compiled
    // with, and the runtime check just above found them on this CPU.
    Some(unsafe { sse42(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn update_hw(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// Reference byte-at-a-time update the differential tests hold the
/// faster paths to.
#[cfg(test)]
fn crc32c_bitwise_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        }
    }
    !crc
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

/// Seal a small self-describing file — the MANIFEST, an ingest root's
/// `.boraingest`, a generation's `.ingest`, a `.seal` marker, a `.seg`
/// segment — in the envelope they share: `magic u32 | body | crc32c u32`,
/// the trailer covering everything before it. `body` appends the body.
pub fn encode_envelope(magic: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32(magic);
    body(&mut out);
    let crc = crc32c(&out);
    out.put_u32(crc);
    out
}

/// Open what [`encode_envelope`] sealed: check the trailer, then the
/// magic, then let `body` decode the body, which it must consume whole.
/// `what` names the file in the [`BoraError::Corrupt`] a damaged one is
/// (`"{what} checksum mismatch"`, `"trailing bytes in {what}"`, ...).
pub fn decode_envelope<'a, T>(
    bytes: &'a [u8],
    magic: u32,
    what: &str,
    body: impl FnOnce(&mut &'a [u8]) -> BoraResult<T>,
) -> BoraResult<T> {
    let Some((mut cur, trailer)) = bytes.split_last_chunk::<4>() else {
        return Err(BoraError::Corrupt(format!("{what} truncated")));
    };
    if crc32c(cur) != u32::from_le_bytes(*trailer) {
        return Err(BoraError::Corrupt(format!("{what} checksum mismatch")));
    }
    if cur.get_u32()? != magic {
        return Err(BoraError::Corrupt(format!("{what} magic mismatch")));
    }
    let value = body(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(BoraError::Corrupt(format!("trailing bytes in {what}")));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 test vectors for CRC32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut c = Crc32c::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32c(&data));
    }

    #[test]
    fn slice_by_8_matches_bitwise_reference() {
        // Unaligned lengths exercise both the 8-byte lanes and the tail.
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 255, 1024, 4093] {
            assert_eq!(crc32c(&data[..len]), crc32c_bitwise_reference(&data[..len]), "len {len}");
        }
    }

    /// `update` (the hardware instruction, where this host has it),
    /// the slice-by-8 tables and the bitwise reference are one function:
    /// every length 0..4 KiB would be slow bit by bit, so random lengths,
    /// every start alignment within a word, and arbitrary `update`
    /// splits — the three things the word-wise loops could get wrong.
    #[test]
    fn hardware_slice8_and_bitwise_agree() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for round in 0..200 {
            let len = if round < 24 { round } else { next() as usize % 4097 };
            for align in 0..8 {
                let bytes = &data[align..align + len];
                let expected = crc32c_bitwise_reference(bytes);
                assert_eq!(crc32c(bytes), expected, "dispatched, len {len} align {align}");
                let (mut split, mut soft) = (Crc32c::new(), Crc32c::new());
                soft.update_slice8(bytes);
                assert_eq!(soft.finish(), expected, "slice8, len {len} align {align}");
                let mut rest = bytes;
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at(1 + next() as usize % rest.len());
                    // Alternate the paths too: they share one state.
                    if next() & 1 == 0 {
                        split.update(head);
                    } else {
                        split.update_slice8(head);
                    }
                    rest = tail;
                }
                assert_eq!(split.finish(), expected, "split, len {len} align {align}");
            }
        }
    }

    #[test]
    fn envelope_round_trips_and_names_each_failure() {
        let sealed = encode_envelope(0x4142_4344, |out| out.put_string("body"));
        assert_eq!(&sealed[..4], &0x4142_4344u32.to_le_bytes());
        assert_eq!(crc32c(&sealed[..sealed.len() - 4]).to_le_bytes(), sealed[sealed.len() - 4..]);
        let open = |bytes: &[u8], magic| {
            decode_envelope(bytes, magic, "thing", |cur| Ok(cur.get_string()?))
        };
        assert_eq!(open(&sealed, 0x4142_4344).unwrap(), "body");
        let err = |r: BoraResult<String>| match r {
            Err(BoraError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert_eq!(err(open(&sealed[..3], 0x4142_4344)), "thing truncated");
        assert_eq!(err(open(&sealed, 7)), "thing magic mismatch");
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x08;
            assert_eq!(err(open(&bad, 0x4142_4344)), "thing checksum mismatch", "flip at {pos}");
        }
        let long = encode_envelope(0x4142_4344, |out| {
            out.put_string("body");
            out.push(0);
        });
        assert_eq!(err(open(&long, 0x4142_4344)), "trailing bytes in thing");
        let short = encode_envelope(0x4142_4344, |out| out.put_u32(9));
        assert!(matches!(open(&short, 0x4142_4344), Err(BoraError::Wire(_))));
    }

    #[test]
    fn single_bit_flip_detected() {
        let data = vec![0xABu8; 4096];
        let base = crc32c(&data);
        for pos in [0usize, 1, 2048, 4095] {
            let mut flipped = data.clone();
            flipped[pos] ^= 0x01;
            assert_ne!(crc32c(&flipped), base, "flip at {pos} undetected");
        }
    }
}
