//! The harness's own arithmetic: medians, tail percentiles under the
//! ten-samples-beyond rule, the output digest, and a seeded generator.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller reports a metric that exists.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile (nearest rank) of `values`, reported only when at
/// least ten samples lie beyond it — a tail read off fewer samples is a
/// maximum, not a percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0,1)");
    let n = values.len();
    let rank = ((n as f64) * p).ceil() as usize;
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank.max(1) - 1])
}

/// Order-sensitive 64-bit digest of a sequence of byte fields. Both sides
/// of a comparison feed the same fields in the same order, so the digest
/// may (and does) depend on field boundaries. Word-at-a-time so that
/// hashing a 57 MB scan costs milliseconds, not a share of the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x9E37_79B9_7F4A_7C15)
    }
}

impl Digest {
    const K: u64 = 0xFF51_AFD7_ED55_8CCD;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K).rotate_left(29);
    }

    pub fn u64(&mut self, v: u64) {
        self.mix(v);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.mix(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    /// One message as `(topic, time, payload)`.
    pub fn message(&mut self, topic: &str, time_ns: u64, payload: &[u8]) {
        self.bytes(topic.as_bytes());
        self.u64(time_ns);
        self.bytes(payload);
    }

    pub fn finish(self) -> u64 {
        // Final avalanche so short inputs still differ in every bit.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(Self::K);
        h ^ (h >> 33)
    }
}

/// splitmix64: the harness's own parameter draws come from here, so a
/// seed means the same request list whatever the `rand` shim does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples (991..=1000) beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // One sample fewer and only nine lie beyond: not reported.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // p90 of 100: rank 90, exactly ten beyond.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&w, 0.95), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn digest_sees_order_content_and_boundaries() {
        let d = |msgs: &[(&str, u64, &[u8])]| {
            let mut d = Digest::default();
            for (t, ns, p) in msgs {
                d.message(t, *ns, p);
            }
            d.finish()
        };
        let a = d(&[("/imu", 1, b"abcdefghi"), ("/tf", 2, b"xyz")]);
        assert_eq!(a, d(&[("/imu", 1, b"abcdefghi"), ("/tf", 2, b"xyz")]));
        assert_ne!(a, d(&[("/tf", 2, b"xyz"), ("/imu", 1, b"abcdefghi")]), "order");
        assert_ne!(a, d(&[("/imu", 1, b"abcdefghj"), ("/tf", 2, b"xyz")]), "payload tail byte");
        assert_ne!(a, d(&[("/imu", 3, b"abcdefghi"), ("/tf", 2, b"xyz")]), "time");
        assert_ne!(a, d(&[("/imu", 1, b"abcdefgh"), ("/tf", 2, b"ixyz")]), "field boundary");
        assert_ne!(d(&[("/a", 0, b"\0")]), d(&[("/a", 0, b"")]), "trailing zero byte");
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut c = SplitMix::new(8);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
        for _ in 0..1000 {
            let x = a.range_f64(0.25, 0.5);
            assert!((0.25..0.5).contains(&x));
        }
    }
}
