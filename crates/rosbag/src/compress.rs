//! Chunk compression: a from-scratch LZSS codec.
//!
//! Real `rosbag` compresses chunks with BZ2 or LZ4; this reproduction
//! implements an LZSS variant (the family LZ4 belongs to) so compressed
//! bags exercise the same code paths: the chunk header's `compression`
//! field, whole-chunk decompression on read, and index offsets expressed
//! in *uncompressed* chunk coordinates.
//!
//! Format: groups of up to 8 tokens, each group led by a flag byte
//! (bit i set ⇒ token i is a match). A literal token is one raw byte; a
//! match token is two bytes encoding a 12-bit back-distance (1..=4095)
//! and a 4-bit length (3..=18).
//!
//! A caller that stores the input raw whenever compression does not pay
//! (`bora::block::encode_frame`) uses [`compress_bounded`]: the same
//! encoder, but it stops searching once a fifth of the input has gone by
//! without the output getting ahead of it.

use crate::error::{BagError, BagResult};

/// Name stored in the chunk header's `compression` field.
pub const LZSS: &str = "lzss";

const WINDOW: usize = 4095;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
/// Hash-chain table size (power of two).
const HASH_SIZE: usize = 1 << 13;
/// Candidates tried per position before settling for the best so far.
const MAX_CHAIN: usize = 32;
/// Input bytes between two of [`compress_bounded`]'s give-up checks: one
/// full window (plus the current byte). Until a window has gone by the
/// encoder has not seen everything a match could point back to, so a
/// shorter stride would judge input on a dictionary still filling up.
const GIVE_UP_STRIDE: usize = WINDOW + 1;
/// [`compress_bounded`] does not give up before `len / PROBE_DIVISOR`
/// input bytes are behind it: input is judged on its first fifth, not on
/// its first window. A noisy prefix shorter than that (a binary header,
/// an image ahead of small messages) does not cost the rest of the input
/// its compression, and incompressible input costs a fifth of a full
/// search, not all of it. (Was 2; ROADMAP item 2(a) walks it down.)
const PROBE_DIVISOR: usize = 5;
/// No stream decodes to more than this many times its own length: the
/// densest group is a flag byte and eight two-byte matches of
/// [`MAX_MATCH`] bytes each — 144 bytes out of 17.
const MAX_EXPANSION: usize = 9;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & (HASH_SIZE - 1)
}

/// Hash chains over the positions already encoded.
struct Chains {
    /// `head[h]` = most recent position with hash `h` (+1; 0 = none).
    head: Vec<u32>,
    /// `prev[i % (WINDOW + 1)]` = previous position in `i`'s chain (+1).
    prev: Vec<u32>,
}

impl Chains {
    fn new() -> Self {
        Chains { head: vec![0; HASH_SIZE], prev: vec![0; WINDOW + 1] }
    }

    #[inline]
    fn insert(&mut self, h: usize, i: usize) {
        self.prev[i % (WINDOW + 1)] = self.head[h];
        self.head[h] = (i + 1) as u32;
    }
}

/// Length of the common prefix of `a` and `b` (equal lengths, at most
/// [`MAX_MATCH`]), eight bytes per step: the first differing byte of two
/// little-endian words is where their XOR has its lowest set bit.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < a.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Compress `data`. Output is self-contained (no external dictionary).
pub fn compress(data: &[u8]) -> Vec<u8> {
    lzss(data, false).expect("the unbounded encoder never gives up")
}

/// [`compress`], unless that would not shrink `data`: `None` when the
/// output is not shorter than the input — or as soon as it is clear
/// enough that it will not be. Each time another window (4096 bytes) of
/// input has been consumed, and once a fifth of the input is behind it,
/// the encoder gives up if it has emitted at least as many bytes as it
/// has read, so input that does not compress costs a fifth of a full
/// pass (one window, when it is no longer than five). `Some` bytes are
/// exactly [`compress`]'s.
///
/// The price: input whose first fifth is noise and which compresses only
/// later is reported as `None` although the full pass would have won.
pub fn compress_bounded(data: &[u8]) -> Option<Vec<u8>> {
    lzss(data, true)
}

/// The encoder. `bounded` adds [`compress_bounded`]'s two exits and
/// changes nothing else.
fn lzss(data: &[u8], bounded: bool) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut chains = Chains::new();

    let mut i = 0usize;
    let mut flags_pos = 0usize;
    let mut flag_bit = 8u8;
    let mut next_check = GIVE_UP_STRIDE;
    let judge_from = data.len() / PROBE_DIVISOR;

    while i < data.len() {
        if flag_bit == 8 {
            flags_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if i + MIN_MATCH > data.len() {
            // Too close to the end to hash, let alone match.
            out.push(data[i]);
            i += 1;
            flag_bit += 1;
            continue;
        }
        let h = hash3(data, i);
        let limit = (data.len() - i).min(MAX_MATCH);
        let here = &data[i..i + limit];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = chains.head[h] as usize; // 1-based
        for _ in 0..MAX_CHAIN {
            if cand == 0 {
                break;
            }
            let pos = cand - 1;
            if pos >= i || i - pos > WINDOW {
                break;
            }
            // A candidate beats `best_len` only if it also matches the
            // byte just past it: one compare rejects most of the chain.
            if best_len < limit && data[pos + best_len] == here[best_len] {
                let l = common_prefix(&data[pos..pos + limit], here);
                if l > best_len {
                    best_len = l;
                    best_dist = i - pos;
                    if l == MAX_MATCH {
                        break;
                    }
                }
            }
            cand = chains.prev[pos % (WINDOW + 1)] as usize;
        }

        chains.insert(h, i);
        if best_len >= MIN_MATCH {
            out[flags_pos] |= 1 << flag_bit;
            let token = ((best_dist as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // Insert hash entries for every covered position.
            for j in i + 1..i + best_len {
                if j + MIN_MATCH <= data.len() {
                    chains.insert(hash3(data, j), j);
                }
            }
            i += best_len;
        } else {
            out.push(data[i]);
            i += 1;
        }
        flag_bit += 1;

        if bounded && i >= next_check {
            if out.len() >= i && i >= judge_from {
                return None;
            }
            next_check += GIVE_UP_STRIDE;
        }
    }
    (!bounded || out.len() < data.len()).then_some(out)
}

/// Decompress into exactly `expected_len` bytes.
///
/// `expected_len` comes from a header the caller could not verify, so it
/// is bounded by what `data` could possibly decode to before anything is
/// reserved for it.
pub fn decompress(data: &[u8], expected_len: usize) -> BagResult<Vec<u8>> {
    if expected_len > data.len().saturating_mul(MAX_EXPANSION) {
        return Err(BagError::Format(format!(
            "lzss stream of {} bytes cannot hold {expected_len}",
            data.len()
        )));
    }
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while out.len() < expected_len {
        if i >= data.len() {
            return Err(BagError::Format("lzss stream truncated".into()));
        }
        let flags = data[i];
        i += 1;
        // Eight literals, all of them wanted: one copy.
        if flags == 0 && expected_len - out.len() >= 8 {
            if let Some(group) = data.get(i..i + 8) {
                out.extend_from_slice(group);
                i += 8;
                continue;
            }
        }
        for bit in 0..8 {
            if out.len() >= expected_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 2 > data.len() {
                    return Err(BagError::Format("lzss match truncated".into()));
                }
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let dist = (token >> 4) as usize;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if dist == 0 || dist > out.len() {
                    return Err(BagError::Format(format!(
                        "lzss back-reference out of range (dist={dist}, have={})",
                        out.len()
                    )));
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // The match overlaps its own output: byte by byte.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            } else {
                if i >= data.len() {
                    return Err(BagError::Format("lzss literal truncated".into()));
                }
                out.push(data[i]);
                i += 1;
            }
        }
    }
    if out.len() != expected_len {
        return Err(BagError::Format(format!(
            "lzss produced {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Decode a chunk's data section given its header's compression field.
pub fn decode_chunk(compression: &str, raw: &[u8], uncompressed_size: usize) -> BagResult<Vec<u8>> {
    match compression {
        "none" => {
            if raw.len() != uncompressed_size {
                return Err(BagError::Format(
                    "uncompressed chunk size disagrees with header".into(),
                ));
            }
            Ok(raw.to_vec())
        }
        LZSS => decompress(raw, uncompressed_size),
        other => Err(BagError::Format(format!("unsupported chunk compression '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder as it was before the word-wise compare, the quick
    /// reject and the hash reuse: every candidate compared byte by byte.
    /// [`compress`] must produce exactly these bytes.
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        if data.is_empty() {
            return out;
        }
        let mut head = vec![0u32; HASH_SIZE];
        let mut prev = vec![0u32; WINDOW + 1];
        let mut i = 0usize;
        let mut flags_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h] as usize;
                let mut steps = 0;
                while cand > 0 && steps < 32 {
                    let pos = cand - 1;
                    if pos >= i || i - pos > WINDOW {
                        break;
                    }
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[pos + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - pos;
                        if l == MAX_MATCH {
                            break;
                        }
                    }
                    cand = prev[pos % (WINDOW + 1)] as usize;
                    steps += 1;
                }
            }
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
            let end = if best_len >= MIN_MATCH {
                out[flags_pos] |= 1 << flag_bit;
                let token = ((best_dist as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                out.extend_from_slice(&token.to_le_bytes());
                i + best_len
            } else {
                out.push(data[i]);
                i + 1
            };
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(data, i);
                    prev[i % (WINDOW + 1)] = head[h];
                    head[h] = (i + 1) as u32;
                }
                i += 1;
            }
            flag_bit += 1;
        }
        out
    }

    /// The decoder one token at a time, no fast path, no length bound.
    fn decompress_reference(data: &[u8], expected_len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let mut bytes = data.iter().copied();
        while out.len() < expected_len {
            let flags = bytes.next()?;
            for bit in 0..8 {
                if out.len() >= expected_len {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    out.push(bytes.next()?);
                    continue;
                }
                let token = u16::from_le_bytes([bytes.next()?, bytes.next()?]);
                let (dist, len) = ((token >> 4) as usize, (token & 0xF) as usize + MIN_MATCH);
                if dist == 0 || dist > out.len() {
                    return None;
                }
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
        }
        (out.len() == expected_len).then_some(out)
    }

    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Inputs that reach every corner of the match loop: noise (no
    /// matches), a repeated unit (chains of equal candidates), long runs
    /// (overlapping `MAX_MATCH` matches) and their concatenations, cut at
    /// any length so the tail is often shorter than `MIN_MATCH`.
    fn arb_input() -> impl Strategy<Value = Vec<u8>> {
        let part = (0u8..4, 0usize..6000, any::<u64>()).prop_map(|(kind, len, seed)| match kind {
            0 => noise(len, seed | 1),
            1 => {
                let unit = noise(1 + (seed % 40) as usize, seed | 1);
                unit.iter().cycle().take(len).copied().collect()
            }
            2 => vec![seed as u8; len],
            // Few distinct symbols: many hash collisions, short matches.
            _ => noise(len, seed | 1).into_iter().map(|b| b & 3).collect(),
        });
        (prop::collection::vec(part, 1..4), 0usize..3).prop_map(|(parts, cut)| {
            let mut data = parts.concat();
            data.truncate(data.len().saturating_sub(cut));
            data
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernels changed how matches are found, not which: same
        /// bytes out as the byte-wise reference encoder. And the bounded
        /// encoder either declines or returns exactly those bytes —
        /// never a third thing.
        #[test]
        fn encoder_matches_reference_and_bounded_never_differs(data in arb_input()) {
            let full = compress(&data);
            prop_assert_eq!(&full, &compress_reference(&data));
            // It may decline input the full pass shrinks (noise first),
            // never the other way round.
            if let Some(packed) = compress_bounded(&data) {
                prop_assert_eq!(&packed, &full);
                prop_assert!(packed.len() < data.len());
            }
            if full.len() >= data.len() {
                prop_assert!(compress_bounded(&data).is_none());
            }
        }

        /// The decoder's fast paths (whole literal groups, non-overlapping
        /// matches) against the token-at-a-time reference, on honest
        /// streams and on every strict prefix of one.
        #[test]
        fn decoder_matches_reference_and_rejects_every_prefix(data in arb_input()) {
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed, data.len()).unwrap(), data.clone());
            prop_assert_eq!(decompress_reference(&packed, data.len()).unwrap(), data.clone());
            if data.is_empty() {
                return Ok(());
            }
            let step = (packed.len() / 64).max(1);
            for cut in (0..packed.len()).step_by(step) {
                prop_assert!(decompress(&packed[..cut], data.len()).is_err(), "prefix {}", cut);
            }
        }

        /// Arbitrary bytes read as a stream: the decoder and the reference
        /// agree on what they decode to, or that they do not.
        #[test]
        fn decoder_agrees_with_reference_on_junk(
            junk in prop::collection::vec(any::<u8>(), 0..256),
            expected in 0usize..1024,
        ) {
            prop_assert_eq!(decompress(&junk, expected).ok(), decompress_reference(&junk, expected));
        }
    }

    #[test]
    fn every_prefix_of_a_small_stream_is_a_typed_error() {
        let data: Vec<u8> = [noise(40, 7), vec![9; 60], noise(40, 7)].concat();
        let packed = compress(&data);
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
        for cut in 0..packed.len() {
            assert!(decompress(&packed[..cut], data.len()).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn overlapping_matches_copy_their_own_output() {
        // One literal, then matches at dist 1 (< len): a run. Then a
        // period-3 pattern continued by dist-3 matches of length 18.
        for data in [vec![5u8; 200], b"abc".iter().cycle().take(300).copied().collect()] {
            let packed = compress(&data);
            assert!(packed.len() < data.len() / 4);
            assert_eq!(decompress(&packed, data.len()).unwrap(), data);
            assert_eq!(decompress_reference(&packed, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn zero_flag_byte_in_the_final_group() {
        // 8 literals (one whole group), then a final all-literal group of
        // which only 3 tokens are wanted: the fast path must not take
        // eight, and must not read past the stream for them.
        let data = noise(11, 3);
        let packed = compress(&data);
        assert_eq!(packed.len(), 11 + 2);
        assert_eq!((packed[0], packed[9]), (0, 0));
        assert_eq!(decompress(&packed, 11).unwrap(), data);
        // Wanting fewer than the stream holds is fine too (a bag chunk's
        // header is the authority on length)...
        assert_eq!(decompress(&packed, 9).unwrap(), data[..9]);
        // ...wanting more is a truncation, not a panic.
        assert!(decompress(&packed, 12).is_err());
        // A final group of exactly eight wanted literals, all present.
        let data = noise(16, 5);
        assert_eq!(decompress(&compress(&data), 16).unwrap(), data);
    }

    #[test]
    fn impossible_expected_len_is_rejected_before_allocating() {
        // 16 stream bytes cannot decode to more than 9 * 16; asking for
        // 4 GiB must be an error, not a reservation.
        let stream = compress(&[1u8; 100]);
        assert!(stream.len() <= 16);
        assert!(decompress(&stream, u32::MAX as usize).is_err());
        assert!(decompress(&[], 1).is_err());
        // The bound is not tight enough to refuse an honest stream: the
        // densest one decodes at 144 / 17.
        let zeros = vec![0u8; 1 << 16];
        assert_eq!(decompress(&compress(&zeros), zeros.len()).unwrap(), zeros);
    }

    #[test]
    fn bounded_gives_up_after_a_fifth_of_the_input_is_noise() {
        // The documented trade: a fifth of the input (four windows of
        // 80 KiB) is noise, the rest a full pass would shrink to almost
        // nothing. The bounded encoder declines.
        let data = [noise(16 << 10, 11), vec![0u8; 64 << 10]].concat();
        assert!(compress(&data).len() < data.len() / 3);
        assert!(compress_bounded(&data).is_none());
        // Three windows of noise are not a fifth of 80 KiB: searched on.
        let data = [noise(12 << 10, 11), vec![0u8; 68 << 10]].concat();
        assert_eq!(compress_bounded(&data).unwrap(), compress(&data));
        // It is all of an input no longer than a window, though.
        assert!(compress_bounded(&noise(GIVE_UP_STRIDE, 11)).is_none());
        // Noise last is compressed as ever: the check is on the running
        // totals, not on the last window alone.
        let data = [vec![0u8; 60 << 10], noise(GIVE_UP_STRIDE, 11)].concat();
        assert_eq!(compress_bounded(&data).unwrap(), compress(&data));
        // Nothing to gain, nothing returned.
        assert!(compress_bounded(&[]).is_none());
        assert!(compress_bounded(b"ab").is_none());
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"sensor_msgs/Imu".iter().cycle().take(8192).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "compressed {} of {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: expansion bounded by flag overhead (1/8).
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn long_runs_use_max_matches() {
        roundtrip(&vec![0u8; 100_000]);
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = vec![7u8; 256];
        let c = compress(&data);
        assert!(decompress(&c[..c.len() - 1], data.len()).is_err());
    }

    #[test]
    fn bad_backref_rejected() {
        // flags=1 (match), dist=100 with empty history.
        let stream = [0x01, 0x40, 0x06, 0x00];
        assert!(decompress(&stream, 10).is_err());
    }

    #[test]
    fn decode_chunk_dispatch() {
        let data = b"hello hello hello".to_vec();
        assert_eq!(decode_chunk("none", &data, data.len()).unwrap(), data);
        let c = compress(&data);
        assert_eq!(decode_chunk(LZSS, &c, data.len()).unwrap(), data);
        assert!(decode_chunk("bz2", &data, data.len()).is_err());
        assert!(decode_chunk("none", &data, data.len() + 1).is_err());
    }
}
