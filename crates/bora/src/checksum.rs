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
//! One chain of `crc32` instructions runs at the instruction's latency,
//! three cycles per eight bytes, although a core can start one every
//! cycle. So the hardware path runs three independent chains over three
//! consecutive stretches — 8 KiB each while 24 KiB remain, then 256 B
//! each, then one chain over the last words — and joins them: a chain's
//! register after `n` more zero bytes is a linear map of the register,
//! four byte-table lookups, so `crc(a ‖ b) = shift_n(crc(a)) ^ crc₀(b)`.
//! The shift tables are built at compile time from the GF(2) matrix of
//! one zero bit; the design is Intel's (Gopal et al., "Fast CRC
//! Computation for iSCSI Polynomial Using CRC32 Instruction", 2011), as
//! in Mark Adler's `crc32c.c`. On a 2.1 GHz x86_64 host, one pinned
//! core, `crc32c` over a hot 64 KiB buffer went from ~7.0 to ~17.5 GB/s
//! and over 57 MB from ~6.4 to ~17 GB/s.
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

/// Bytes per lane of the long and of the short three-lane stretch.
const LONG: usize = 8192;
const SHORT: usize = 256;

/// `mat` (column `i` is the image of bit `i`) applied to `vec` over GF(2).
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let (mut sum, mut i) = (0, 0);
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut square = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        square[n] = gf2_times(mat, mat[n]);
        n += 1;
    }
    square
}

/// What `len` zero bytes (a power of two) do to a CRC register, as four
/// byte tables: the register's byte `k` indexes `tables[k]`, and the four
/// lookups XOR to the register after the zeros. Built from the matrix of
/// one zero bit — shift right, bring in the polynomial for a set low bit —
/// squared to one zero byte, then once per doubling of `len`.
const fn shift_tables(len: usize) -> [[u32; 256]; 4] {
    assert!(len.is_power_of_two());
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut n = 1;
    while n < 32 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    let mut squarings = 3 + len.trailing_zeros();
    while squarings > 0 {
        op = gf2_square(&op);
        squarings -= 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut k = 0;
        while k < 4 {
            tables[k][i] = gf2_times(&op, (i as u32) << (8 * k));
            k += 1;
        }
        i += 1;
    }
    tables
}

static SHIFT_LONG: [[u32; 256]; 4] = shift_tables(LONG);
static SHIFT_SHORT: [[u32; 256]; 4] = shift_tables(SHORT);

/// The register `crc` after the zero bytes `tables` were built for.
fn shift(tables: &[[u32; 256]; 4], crc: u32) -> u32 {
    tables[0][(crc & 0xFF) as usize]
        ^ tables[1][((crc >> 8) & 0xFF) as usize]
        ^ tables[2][((crc >> 16) & 0xFF) as usize]
        ^ tables[3][(crc >> 24) as usize]
}

/// The SSE4.2 `crc32` instruction over `bytes`, or `None` where the CPU
/// (or the target) has none.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn update_hw(crc: u32, bytes: &[u8]) -> Option<u32> {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }

    /// Three chains over each `3 × STRIDE` bytes of `bytes` — the first
    /// from `crc`, the other two from zero — joined as
    /// `shift(shift(a) ^ b) ^ c`; `bytes` keeps the rest.
    #[target_feature(enable = "sse4.2")]
    fn lanes<const STRIDE: usize>(
        mut crc: u32,
        bytes: &mut &[u8],
        tables: &[[u32; 256]; 4],
    ) -> u32 {
        while let Some((block, rest)) = bytes.split_at_checked(3 * STRIDE) {
            let (a, bc) = block.split_at(STRIDE);
            let (b, c) = bc.split_at(STRIDE);
            let (mut x, mut y, mut z) = (crc as u64, 0u64, 0u64);
            for ((a, b), c) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
                x = _mm_crc32_u64(x, word(a));
                y = _mm_crc32_u64(y, word(b));
                z = _mm_crc32_u64(z, word(c));
            }
            crc = shift(tables, shift(tables, x as u32) ^ y as u32) ^ z as u32;
            *bytes = rest;
        }
        crc
    }

    #[target_feature(enable = "sse4.2")]
    fn sse42(crc: u32, mut bytes: &[u8]) -> u32 {
        let crc = lanes::<LONG>(crc, &mut bytes, &SHIFT_LONG);
        let crc = lanes::<SHORT>(crc, &mut bytes, &SHIFT_SHORT);
        let mut chunks = bytes.chunks_exact(8);
        let mut crc = crc as u64;
        for chunk in &mut chunks {
            crc = _mm_crc32_u64(crc, word(chunk));
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

    /// The three-lane loops run only from 3 × 256 bytes on, and their
    /// long form from 3 × 8 KiB: every length here sits on or beside one
    /// of those edges, or runs through both loops and the word tail, at
    /// every start alignment, and is split by `update` calls that cut
    /// inside a stride. Slice-by-8 (held to the bitwise reference above)
    /// is the reference.
    #[test]
    fn three_lanes_agree_with_slice8_on_and_beside_every_stride() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..200 * 1024 + 8).map(|_| next() as u8).collect();
        let (long, short) = (3 * LONG, 3 * SHORT);
        let mut lens = vec![short - 1, short, short + 1, long - 1, long, long + 1];
        lens.extend((0..=8).map(|k| long + short + k));
        lens.extend([long + short - 1, 2 * long + 5 * short + 7, 64 * 1024 + 13, 200 * 1024]);
        for len in lens {
            for align in 0..8 {
                let bytes = &data[align..align + len];
                let mut reference = Crc32c::new();
                reference.update_slice8(bytes);
                let expected = reference.finish();
                assert_eq!(crc32c(bytes), expected, "len {len} align {align}");
                let mut split = Crc32c::new();
                let mut rest = bytes;
                while !rest.is_empty() {
                    // Mostly cuts inside a long stretch, sometimes tiny.
                    let cut = match next() % 4 {
                        0 => 1 + next() as usize % 16,
                        _ => 1 + next() as usize % (2 * long),
                    };
                    let (head, tail) = rest.split_at(cut.min(rest.len()));
                    split.update(head);
                    rest = tail;
                }
                assert_eq!(split.finish(), expected, "split, len {len} align {align}");
            }
        }
    }

    /// Each shift table is the register after its stride of zero bytes:
    /// every entry is pinned through the 32 one-bit registers (the shift
    /// is linear), and random whole registers go through all four tables.
    #[test]
    fn shift_tables_are_slice8_over_their_zero_bytes() {
        let mut x = 0x6A09_E667_F3BC_C908u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        for (tables, len) in [(&SHIFT_LONG, LONG), (&SHIFT_SHORT, SHORT)] {
            let zeros = vec![0u8; len];
            let image: Vec<u32> = (0..32).map(|bit| update_slice8(1 << bit, &zeros)).collect();
            for (k, table) in tables.iter().enumerate() {
                for (i, &entry) in table.iter().enumerate() {
                    let register = (i as u32) << (8 * k);
                    let expected = (0..32)
                        .filter(|bit| register >> bit & 1 != 0)
                        .fold(0, |acc, bit| acc ^ image[bit]);
                    assert_eq!(entry, expected, "{len}-byte table {k}, entry {i}");
                }
            }
            for _ in 0..64 {
                let register = next();
                assert_eq!(shift(tables, register), update_slice8(register, &zeros), "{len}");
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
